package progdb

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sort"

	"ppd/internal/analysis"
	"ppd/internal/ast"
	"ppd/internal/bytecode"
	"ppd/internal/eblock"
	"ppd/internal/source"
)

// Binary codec for cached preparatory-phase artifacts. Like the vm log
// codec, it is append-based with varint integers, a fixed magic, and an
// EncodedLen that mirrors the encoder's arithmetic exactly (pinned by
// tests). The decoder never panics on malformed input and never allocates
// proportionally to a corrupt length prefix: every claimed element must be
// present in the input, so slices grow from a bounded initial capacity.
//
// The format is versioned; CodecVersion participates in the cache key, so
// a codec change silently invalidates old entries instead of misreading
// them — but Decode still checks the header version for files reached by
// other paths.

// cacheMagic is "PPDC" — the artifact-cache container, distinct from the
// log codec's "PPD1".
const cacheMagic = 0x50504443

// CodecVersion is bumped whenever the encoded layout changes. It is part
// of both the file header and the content-hash cache key.
//
// v2: functions carry the superinstruction side table (bytecode.Fuse), so
// warm cache hits return fused bytecode; v1 entries decode-fail into clean
// misses.
//
// v3: the program carries WidenedSuper (certificate-widened fusion window
// count) and the vet result carries the abstract-interpretation facts —
// lock-guard prunes on the conflict matrix and the facts counters — so a
// warm hit answers `vet -json` identically to a cold run; v2 entries
// decode-fail into clean misses.
//
// v4: functions carry the precomputed prelog-PC index (PrelogAt), so a warm
// cache hit starts emulation without re-scanning code for OpPrelog sites;
// v3 entries decode-fail into clean misses.
//
// v5: the entry carries the program database's statement table
// (StmtTable), so a warm cache hit answers debugging-phase questions
// without rebuilding the front end; v4 entries decode-fail into clean
// misses.
const CodecVersion = 5

// CachedProgram is the persisted slice of a compile: everything the
// execution phase needs (the bytecode program), the vet result the
// debugging phase uses to prune its race detectors, and the statement
// table flowback and the reports read. The rest of the semantic layers
// (AST, sem.Info, PDG, e-block plan, the def/use index) serve only tools
// that print them, are full of unexported graph state, and are rebuilt
// from source on demand instead of serialized.
type CachedProgram struct {
	SourceName string
	Source     string
	Config     eblock.Config
	Prog       *bytecode.Program
	Vet        *analysis.Result
	Stmts      *StmtTable
}

// Encode serializes cp. The output is deterministic: map-shaped fields
// (ArraySlots, PerPass) are emitted in sorted key order, and FuncIdx is
// not emitted at all (it is rebuilt from Funcs on decode).
func Encode(cp *CachedProgram) []byte {
	b := make([]byte, 0, EncodedLen(cp))
	b = binary.BigEndian.AppendUint32(b, cacheMagic)
	b = binary.AppendUvarint(b, CodecVersion)
	b = appendString(b, cp.SourceName)
	b = appendString(b, cp.Source)
	b = binary.AppendVarint(b, int64(cp.Config.LeafInlineThreshold))
	b = binary.AppendVarint(b, int64(cp.Config.LoopBlockMinStmts))
	b = appendProgram(b, cp.Prog)
	b = appendVet(b, cp.Vet)
	b = appendTable(b, cp.Stmts)
	return b
}

// EncodedLen returns exactly len(Encode(cp)) without encoding.
func EncodedLen(cp *CachedProgram) int {
	n := 4 + uvarintLen(CodecVersion)
	n += stringLen(cp.SourceName)
	n += stringLen(cp.Source)
	n += varintLen(int64(cp.Config.LeafInlineThreshold))
	n += varintLen(int64(cp.Config.LoopBlockMinStmts))
	n += programLen(cp.Prog)
	n += vetLen(cp.Vet)
	n += tableLen(cp.Stmts)
	return n
}

// Decode parses an Encode output. It rejects bad magic, version
// mismatches, truncation, and trailing garbage.
func Decode(data []byte) (*CachedProgram, error) {
	d := &decoder{b: data}
	if len(data) < 4 {
		return nil, errors.New("progdb: short header")
	}
	if m := binary.BigEndian.Uint32(data[:4]); m != cacheMagic {
		return nil, fmt.Errorf("progdb: bad magic %#x", m)
	}
	d.pos = 4
	ver, err := d.uvarint()
	if err != nil {
		return nil, err
	}
	if ver != CodecVersion {
		return nil, fmt.Errorf("progdb: codec version %d, want %d", ver, CodecVersion)
	}
	cp := &CachedProgram{}
	if cp.SourceName, err = d.string(); err != nil {
		return nil, err
	}
	if cp.Source, err = d.string(); err != nil {
		return nil, err
	}
	if cp.Config.LeafInlineThreshold, err = d.int(); err != nil {
		return nil, err
	}
	if cp.Config.LoopBlockMinStmts, err = d.int(); err != nil {
		return nil, err
	}
	if cp.Prog, err = d.program(); err != nil {
		return nil, err
	}
	if cp.Vet, err = d.vet(); err != nil {
		return nil, err
	}
	if cp.Stmts, err = d.table(cp.Prog); err != nil {
		return nil, err
	}
	if d.pos != len(d.b) {
		return nil, fmt.Errorf("progdb: %d trailing bytes", len(d.b)-d.pos)
	}
	return cp, nil
}

// ---- encode helpers ----

func appendString(b []byte, s string) []byte {
	b = binary.AppendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

func appendBool(b []byte, v bool) []byte {
	if v {
		return append(b, 1)
	}
	return append(b, 0)
}

func appendInts(b []byte, s []int) []byte {
	b = binary.AppendUvarint(b, uint64(len(s)))
	for _, x := range s {
		b = binary.AppendVarint(b, int64(x))
	}
	return b
}

func appendProgram(b []byte, p *bytecode.Program) []byte {
	b = binary.AppendVarint(b, int64(p.MainIdx))
	b = binary.AppendVarint(b, int64(p.WidenedSuper))
	b = binary.AppendUvarint(b, uint64(len(p.Strings)))
	for _, s := range p.Strings {
		b = appendString(b, s)
	}
	b = binary.AppendUvarint(b, uint64(len(p.Globals)))
	for i := range p.Globals {
		g := &p.Globals[i]
		b = appendString(b, g.Name)
		b = append(b, byte(g.Kind))
		b = appendBool(b, g.IsArray)
		b = binary.AppendVarint(b, int64(g.Len))
		b = binary.AppendVarint(b, g.Init)
		b = appendBool(b, g.HasInit)
		b = appendBool(b, g.Shared)
	}
	b = binary.AppendUvarint(b, uint64(len(p.Funcs)))
	for _, f := range p.Funcs {
		b = appendFunc(b, f)
	}
	b = binary.AppendUvarint(b, uint64(len(p.Blocks)))
	for _, bm := range p.Blocks {
		b = appendBlockMeta(b, bm)
	}
	return b
}

func appendFunc(b []byte, f *bytecode.Func) []byte {
	b = binary.AppendVarint(b, int64(f.Idx))
	b = appendString(b, f.Name)
	b = binary.AppendVarint(b, int64(f.NumParams))
	b = binary.AppendVarint(b, int64(f.NumSlots))
	b = appendBool(b, f.HasResult)
	b = binary.AppendVarint(b, int64(f.BlockID))
	b = binary.AppendUvarint(b, uint64(len(f.Code)))
	for i := range f.Code {
		in := &f.Code[i]
		b = append(b, byte(in.Op))
		b = binary.AppendVarint(b, int64(in.A))
		b = binary.AppendVarint(b, int64(in.B))
		b = binary.AppendUvarint(b, uint64(in.Stmt))
	}
	b = binary.AppendUvarint(b, uint64(len(f.Units)))
	for i := range f.Units {
		b = binary.AppendUvarint(b, uint64(f.Units[i].Stmt))
		b = appendInts(b, f.Units[i].Globals)
	}
	b = appendInts(b, f.ParamSlots)
	// ArraySlots in sorted key order so equal programs encode equal bytes.
	keys := make([]int, 0, len(f.ArraySlots))
	for k := range f.ArraySlots {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	b = binary.AppendUvarint(b, uint64(len(keys)))
	for _, k := range keys {
		b = binary.AppendVarint(b, int64(k))
		b = binary.AppendVarint(b, int64(f.ArraySlots[k]))
	}
	// PrelogAt in sorted key order, same determinism rule as ArraySlots.
	pkeys := make([]int, 0, len(f.PrelogAt))
	for k := range f.PrelogAt {
		pkeys = append(pkeys, k)
	}
	sort.Ints(pkeys)
	b = binary.AppendUvarint(b, uint64(len(pkeys)))
	for _, k := range pkeys {
		b = binary.AppendVarint(b, int64(k))
		b = binary.AppendVarint(b, int64(f.PrelogAt[k]))
	}
	// Superinstruction side table, sparse: only non-None entries, keyed by
	// pc (the table is parallel to Code and usually mostly empty).
	nSup := 0
	for i := range f.Super {
		if f.Super[i].Op != bytecode.SuperNone {
			nSup++
		}
	}
	b = binary.AppendUvarint(b, uint64(nSup))
	for pc := range f.Super {
		s := &f.Super[pc]
		if s.Op == bytecode.SuperNone {
			continue
		}
		b = binary.AppendUvarint(b, uint64(pc))
		b = append(b, byte(s.Op), s.W, byte(s.Bin))
		b = binary.AppendVarint(b, int64(s.A))
		b = binary.AppendVarint(b, int64(s.B))
		b = binary.AppendVarint(b, int64(s.C))
		b = binary.AppendVarint(b, s.K)
		b = binary.AppendVarint(b, int64(s.T))
	}
	return b
}

func appendBlockMeta(b []byte, bm *bytecode.BlockMeta) []byte {
	b = binary.AppendVarint(b, int64(bm.ID))
	b = append(b, byte(bm.Kind))
	b = binary.AppendVarint(b, int64(bm.FuncIdx))
	b = binary.AppendUvarint(b, uint64(bm.LoopStmt))
	b = appendInts(b, bm.UsedLocals)
	b = appendInts(b, bm.UsedGlobals)
	b = appendInts(b, bm.DefinedLocals)
	b = appendInts(b, bm.DefinedGlobals)
	b = appendBool(b, bm.HasRet)
	b = binary.AppendVarint(b, int64(bm.PrelogPC))
	b = binary.AppendVarint(b, int64(bm.PostPC))
	return b
}

func appendPos(b []byte, p source.Position) []byte {
	b = appendString(b, p.Filename)
	b = binary.AppendVarint(b, int64(p.Offset))
	b = binary.AppendVarint(b, int64(p.Line))
	b = binary.AppendVarint(b, int64(p.Column))
	return b
}

func appendVet(b []byte, v *analysis.Result) []byte {
	if v == nil {
		return append(b, 0)
	}
	b = append(b, 1)
	b = binary.AppendUvarint(b, uint64(len(v.Diagnostics)))
	for _, d := range v.Diagnostics {
		b = appendString(b, d.Code)
		b = binary.AppendVarint(b, int64(d.Sev))
		b = appendPos(b, d.Pos)
		b = appendString(b, d.Message)
		b = binary.AppendUvarint(b, uint64(len(d.Related)))
		for i := range d.Related {
			b = appendPos(b, d.Related[i].Pos)
			b = appendString(b, d.Related[i].Message)
		}
	}
	w := v.Conflicts.Wire()
	if w == nil {
		b = append(b, 0)
	} else {
		b = append(b, 1)
		b = binary.AppendVarint(b, int64(w.NumGlobals))
		b = binary.AppendUvarint(b, uint64(len(w.Classes)))
		for i := range w.Classes {
			cl := &w.Classes[i]
			b = appendString(b, cl.Entry)
			b = appendBool(b, cl.Many)
			b = appendInts(b, cl.Reads)
			b = appendInts(b, cl.Writes)
		}
		b = binary.AppendUvarint(b, uint64(len(w.Pairs)))
		for i := range w.Pairs {
			p := &w.Pairs[i]
			b = binary.AppendVarint(b, int64(p.A))
			b = binary.AppendVarint(b, int64(p.B))
			b = appendInts(b, p.Vars)
		}
		b = binary.AppendUvarint(b, uint64(len(w.Guarded)))
		for i := range w.Guarded {
			b = binary.AppendVarint(b, int64(w.Guarded[i].Gid))
			b = binary.AppendVarint(b, int64(w.Guarded[i].Sem))
		}
	}
	b = binary.AppendVarint(b, int64(v.Facts.Intervals))
	b = binary.AppendVarint(b, int64(v.Facts.Nonzero))
	b = binary.AppendVarint(b, int64(v.Facts.Locksets))
	// PerPass in sorted key order for deterministic bytes.
	passes := make([]string, 0, len(v.PerPass))
	for k := range v.PerPass {
		passes = append(passes, k)
	}
	sort.Strings(passes)
	b = binary.AppendUvarint(b, uint64(len(passes)))
	for _, k := range passes {
		b = appendString(b, k)
		b = binary.AppendVarint(b, int64(v.PerPass[k]))
	}
	return b
}

// ---- length mirrors ----

func uvarintLen(v uint64) int {
	n := 1
	for v >= 0x80 {
		v >>= 7
		n++
	}
	return n
}

func varintLen(v int64) int {
	uv := uint64(v) << 1
	if v < 0 {
		uv = ^uv
	}
	return uvarintLen(uv)
}

func stringLen(s string) int { return uvarintLen(uint64(len(s))) + len(s) }

func intsLen(s []int) int {
	n := uvarintLen(uint64(len(s)))
	for _, x := range s {
		n += varintLen(int64(x))
	}
	return n
}

func posLen(p source.Position) int {
	return stringLen(p.Filename) + varintLen(int64(p.Offset)) +
		varintLen(int64(p.Line)) + varintLen(int64(p.Column))
}

func programLen(p *bytecode.Program) int {
	n := varintLen(int64(p.MainIdx)) + varintLen(int64(p.WidenedSuper))
	n += uvarintLen(uint64(len(p.Strings)))
	for _, s := range p.Strings {
		n += stringLen(s)
	}
	n += uvarintLen(uint64(len(p.Globals)))
	for i := range p.Globals {
		g := &p.Globals[i]
		n += stringLen(g.Name) + 1 + 1 + varintLen(int64(g.Len)) +
			varintLen(g.Init) + 1 + 1
	}
	n += uvarintLen(uint64(len(p.Funcs)))
	for _, f := range p.Funcs {
		n += funcLen(f)
	}
	n += uvarintLen(uint64(len(p.Blocks)))
	for _, bm := range p.Blocks {
		n += blockMetaLen(bm)
	}
	return n
}

func funcLen(f *bytecode.Func) int {
	n := varintLen(int64(f.Idx)) + stringLen(f.Name) +
		varintLen(int64(f.NumParams)) + varintLen(int64(f.NumSlots)) + 1 +
		varintLen(int64(f.BlockID))
	n += uvarintLen(uint64(len(f.Code)))
	for i := range f.Code {
		in := &f.Code[i]
		n += 1 + varintLen(int64(in.A)) + varintLen(int64(in.B)) +
			uvarintLen(uint64(in.Stmt))
	}
	n += uvarintLen(uint64(len(f.Units)))
	for i := range f.Units {
		n += uvarintLen(uint64(f.Units[i].Stmt)) + intsLen(f.Units[i].Globals)
	}
	n += intsLen(f.ParamSlots)
	n += uvarintLen(uint64(len(f.ArraySlots)))
	for k, v := range f.ArraySlots {
		n += varintLen(int64(k)) + varintLen(int64(v))
	}
	n += uvarintLen(uint64(len(f.PrelogAt)))
	for k, v := range f.PrelogAt {
		n += varintLen(int64(k)) + varintLen(int64(v))
	}
	nSup := 0
	for i := range f.Super {
		s := &f.Super[i]
		if s.Op == bytecode.SuperNone {
			continue
		}
		nSup++
		n += uvarintLen(uint64(i)) + 3 +
			varintLen(int64(s.A)) + varintLen(int64(s.B)) + varintLen(int64(s.C)) +
			varintLen(s.K) + varintLen(int64(s.T))
	}
	n += uvarintLen(uint64(nSup))
	return n
}

func blockMetaLen(bm *bytecode.BlockMeta) int {
	return varintLen(int64(bm.ID)) + 1 + varintLen(int64(bm.FuncIdx)) +
		uvarintLen(uint64(bm.LoopStmt)) +
		intsLen(bm.UsedLocals) + intsLen(bm.UsedGlobals) +
		intsLen(bm.DefinedLocals) + intsLen(bm.DefinedGlobals) +
		1 + varintLen(int64(bm.PrelogPC)) + varintLen(int64(bm.PostPC))
}

func vetLen(v *analysis.Result) int {
	if v == nil {
		return 1
	}
	n := 1 + uvarintLen(uint64(len(v.Diagnostics)))
	for _, d := range v.Diagnostics {
		n += stringLen(d.Code) + varintLen(int64(d.Sev)) + posLen(d.Pos) +
			stringLen(d.Message) + uvarintLen(uint64(len(d.Related)))
		for i := range d.Related {
			n += posLen(d.Related[i].Pos) + stringLen(d.Related[i].Message)
		}
	}
	w := v.Conflicts.Wire()
	n++
	if w != nil {
		n += varintLen(int64(w.NumGlobals))
		n += uvarintLen(uint64(len(w.Classes)))
		for i := range w.Classes {
			cl := &w.Classes[i]
			n += stringLen(cl.Entry) + 1 + intsLen(cl.Reads) + intsLen(cl.Writes)
		}
		n += uvarintLen(uint64(len(w.Pairs)))
		for i := range w.Pairs {
			p := &w.Pairs[i]
			n += varintLen(int64(p.A)) + varintLen(int64(p.B)) + intsLen(p.Vars)
		}
		n += uvarintLen(uint64(len(w.Guarded)))
		for i := range w.Guarded {
			n += varintLen(int64(w.Guarded[i].Gid)) + varintLen(int64(w.Guarded[i].Sem))
		}
	}
	n += varintLen(int64(v.Facts.Intervals)) + varintLen(int64(v.Facts.Nonzero)) +
		varintLen(int64(v.Facts.Locksets))
	n += uvarintLen(uint64(len(v.PerPass)))
	for k, c := range v.PerPass {
		n += stringLen(k) + varintLen(int64(c))
	}
	return n
}

// ---- decoder ----

// cacheReadCap bounds initial slice capacities while decoding, same idiom
// as the log codec: a lying length prefix degrades to a truncation error
// instead of a giant allocation.
const cacheReadCap = 1024

type decoder struct {
	b   []byte
	pos int
}

var errTruncated = errors.New("progdb: truncated input")

func (d *decoder) uvarint() (uint64, error) {
	v, n := binary.Uvarint(d.b[d.pos:])
	if n <= 0 {
		return 0, errTruncated
	}
	d.pos += n
	return v, nil
}

func (d *decoder) varint() (int64, error) {
	v, n := binary.Varint(d.b[d.pos:])
	if n <= 0 {
		return 0, errTruncated
	}
	d.pos += n
	return v, nil
}

func (d *decoder) int() (int, error) {
	v, err := d.varint()
	return int(v), err
}

func (d *decoder) byte() (byte, error) {
	if d.pos >= len(d.b) {
		return 0, errTruncated
	}
	c := d.b[d.pos]
	d.pos++
	return c, nil
}

func (d *decoder) bool() (bool, error) {
	c, err := d.byte()
	if err != nil {
		return false, err
	}
	switch c {
	case 0:
		return false, nil
	case 1:
		return true, nil
	}
	return false, fmt.Errorf("progdb: bad bool byte %d", c)
}

func (d *decoder) string() (string, error) {
	n, err := d.uvarint()
	if err != nil {
		return "", err
	}
	if uint64(len(d.b)-d.pos) < n {
		return "", errTruncated
	}
	s := string(d.b[d.pos : d.pos+int(n)])
	d.pos += int(n)
	return s, nil
}

func (d *decoder) ints() ([]int, error) {
	n, err := d.uvarint()
	if err != nil {
		return nil, err
	}
	if n == 0 {
		return nil, nil
	}
	s := make([]int, 0, min(n, cacheReadCap))
	for i := uint64(0); i < n; i++ {
		x, err := d.int()
		if err != nil {
			return nil, err
		}
		s = append(s, x)
	}
	return s, nil
}

func (d *decoder) pos_() (source.Position, error) {
	var p source.Position
	var err error
	if p.Filename, err = d.string(); err != nil {
		return p, err
	}
	if p.Offset, err = d.int(); err != nil {
		return p, err
	}
	if p.Line, err = d.int(); err != nil {
		return p, err
	}
	p.Column, err = d.int()
	return p, err
}

func (d *decoder) program() (*bytecode.Program, error) {
	p := &bytecode.Program{FuncIdx: make(map[string]int)}
	var err error
	if p.MainIdx, err = d.int(); err != nil {
		return nil, err
	}
	if p.WidenedSuper, err = d.int(); err != nil {
		return nil, err
	}
	nStr, err := d.uvarint()
	if err != nil {
		return nil, err
	}
	p.Strings = make([]string, 0, min(nStr, cacheReadCap))
	for i := uint64(0); i < nStr; i++ {
		s, err := d.string()
		if err != nil {
			return nil, err
		}
		p.Strings = append(p.Strings, s)
	}
	nGlob, err := d.uvarint()
	if err != nil {
		return nil, err
	}
	p.Globals = make([]bytecode.GlobalDef, 0, min(nGlob, cacheReadCap))
	for i := uint64(0); i < nGlob; i++ {
		var g bytecode.GlobalDef
		if g.Name, err = d.string(); err != nil {
			return nil, err
		}
		kind, err := d.byte()
		if err != nil {
			return nil, err
		}
		g.Kind = bytecode.GlobalKind(kind)
		if g.IsArray, err = d.bool(); err != nil {
			return nil, err
		}
		if g.Len, err = d.int(); err != nil {
			return nil, err
		}
		if g.Init, err = d.varint(); err != nil {
			return nil, err
		}
		if g.HasInit, err = d.bool(); err != nil {
			return nil, err
		}
		if g.Shared, err = d.bool(); err != nil {
			return nil, err
		}
		p.Globals = append(p.Globals, g)
	}
	nFuncs, err := d.uvarint()
	if err != nil {
		return nil, err
	}
	p.Funcs = make([]*bytecode.Func, 0, min(nFuncs, cacheReadCap))
	for i := uint64(0); i < nFuncs; i++ {
		f, err := d.fn()
		if err != nil {
			return nil, fmt.Errorf("func %d: %w", i, err)
		}
		// The statement table and the flowback builder index by Idx.
		if f.Idx != int(i) {
			return nil, fmt.Errorf("progdb: function %d has index %d", i, f.Idx)
		}
		p.Funcs = append(p.Funcs, f)
		p.FuncIdx[f.Name] = int(i)
	}
	nBlocks, err := d.uvarint()
	if err != nil {
		return nil, err
	}
	p.Blocks = make([]*bytecode.BlockMeta, 0, min(nBlocks, cacheReadCap))
	for i := uint64(0); i < nBlocks; i++ {
		bm, err := d.blockMeta()
		if err != nil {
			return nil, fmt.Errorf("block %d: %w", i, err)
		}
		p.Blocks = append(p.Blocks, bm)
	}
	return p, nil
}

func (d *decoder) fn() (*bytecode.Func, error) {
	f := &bytecode.Func{}
	var err error
	if f.Idx, err = d.int(); err != nil {
		return nil, err
	}
	if f.Name, err = d.string(); err != nil {
		return nil, err
	}
	if f.NumParams, err = d.int(); err != nil {
		return nil, err
	}
	if f.NumSlots, err = d.int(); err != nil {
		return nil, err
	}
	if f.HasResult, err = d.bool(); err != nil {
		return nil, err
	}
	if f.BlockID, err = d.int(); err != nil {
		return nil, err
	}
	nCode, err := d.uvarint()
	if err != nil {
		return nil, err
	}
	f.Code = make([]bytecode.Instr, 0, min(nCode, cacheReadCap))
	for i := uint64(0); i < nCode; i++ {
		var in bytecode.Instr
		op, err := d.byte()
		if err != nil {
			return nil, err
		}
		in.Op = bytecode.Op(op)
		if in.A, err = d.int(); err != nil {
			return nil, err
		}
		if in.B, err = d.int(); err != nil {
			return nil, err
		}
		stmt, err := d.uvarint()
		if err != nil {
			return nil, err
		}
		in.Stmt = ast.StmtID(stmt)
		f.Code = append(f.Code, in)
	}
	nUnits, err := d.uvarint()
	if err != nil {
		return nil, err
	}
	f.Units = make([]bytecode.UnitLog, 0, min(nUnits, cacheReadCap))
	for i := uint64(0); i < nUnits; i++ {
		var u bytecode.UnitLog
		stmt, err := d.uvarint()
		if err != nil {
			return nil, err
		}
		u.Stmt = ast.StmtID(stmt)
		if u.Globals, err = d.ints(); err != nil {
			return nil, err
		}
		f.Units = append(f.Units, u)
	}
	if f.ParamSlots, err = d.ints(); err != nil {
		return nil, err
	}
	nArr, err := d.uvarint()
	if err != nil {
		return nil, err
	}
	if nArr > 0 {
		f.ArraySlots = make(map[int]int, min(nArr, cacheReadCap))
		for i := uint64(0); i < nArr; i++ {
			k, err := d.int()
			if err != nil {
				return nil, err
			}
			v, err := d.int()
			if err != nil {
				return nil, err
			}
			f.ArraySlots[k] = v
		}
	}
	nPre, err := d.uvarint()
	if err != nil {
		return nil, err
	}
	if nPre > 0 {
		f.PrelogAt = make(map[int]int, min(nPre, cacheReadCap))
		for i := uint64(0); i < nPre; i++ {
			k, err := d.int()
			if err != nil {
				return nil, err
			}
			v, err := d.int()
			if err != nil {
				return nil, err
			}
			f.PrelogAt[k] = v
		}
	}
	nSup, err := d.uvarint()
	if err != nil {
		return nil, err
	}
	if nSup > 0 {
		// len(f.Code) is already decoded, so the dense side table's size is
		// bounded by validated input.
		f.Super = make([]bytecode.SuperInstr, len(f.Code))
		for i := uint64(0); i < nSup; i++ {
			pc, err := d.uvarint()
			if err != nil {
				return nil, err
			}
			op, err := d.byte()
			if err != nil {
				return nil, err
			}
			var s bytecode.SuperInstr
			s.Op = bytecode.SuperOp(op)
			if s.W, err = d.byte(); err != nil {
				return nil, err
			}
			bin, err := d.byte()
			if err != nil {
				return nil, err
			}
			s.Bin = bytecode.Op(bin)
			if s.A, err = d.int(); err != nil {
				return nil, err
			}
			if s.B, err = d.int(); err != nil {
				return nil, err
			}
			if s.C, err = d.int(); err != nil {
				return nil, err
			}
			if s.K, err = d.varint(); err != nil {
				return nil, err
			}
			if s.T, err = d.int(); err != nil {
				return nil, err
			}
			// The dispatcher executes Super entries without per-step pc
			// checks, so reject anything the fusion pass could not emit.
			if s.Op == bytecode.SuperNone || s.Op >= bytecode.NumSuperOps {
				return nil, fmt.Errorf("progdb: super op %d out of range", op)
			}
			if s.W < 2 || s.W > 4 {
				return nil, fmt.Errorf("progdb: super width %d out of range", s.W)
			}
			if pc >= uint64(len(f.Code)) || pc+uint64(s.W) > uint64(len(f.Code)) {
				return nil, fmt.Errorf("progdb: super pc %d out of range", pc)
			}
			f.Super[pc] = s
		}
	}
	return f, nil
}

func (d *decoder) blockMeta() (*bytecode.BlockMeta, error) {
	bm := &bytecode.BlockMeta{}
	var err error
	if bm.ID, err = d.int(); err != nil {
		return nil, err
	}
	kind, err := d.byte()
	if err != nil {
		return nil, err
	}
	bm.Kind = bytecode.BlockKind(kind)
	if bm.FuncIdx, err = d.int(); err != nil {
		return nil, err
	}
	loop, err := d.uvarint()
	if err != nil {
		return nil, err
	}
	bm.LoopStmt = ast.StmtID(loop)
	if bm.UsedLocals, err = d.ints(); err != nil {
		return nil, err
	}
	if bm.UsedGlobals, err = d.ints(); err != nil {
		return nil, err
	}
	if bm.DefinedLocals, err = d.ints(); err != nil {
		return nil, err
	}
	if bm.DefinedGlobals, err = d.ints(); err != nil {
		return nil, err
	}
	if bm.HasRet, err = d.bool(); err != nil {
		return nil, err
	}
	if bm.PrelogPC, err = d.int(); err != nil {
		return nil, err
	}
	if bm.PostPC, err = d.int(); err != nil {
		return nil, err
	}
	return bm, nil
}

func (d *decoder) vet() (*analysis.Result, error) {
	present, err := d.bool()
	if err != nil {
		return nil, err
	}
	if !present {
		return nil, nil
	}
	v := &analysis.Result{}
	nDiag, err := d.uvarint()
	if err != nil {
		return nil, err
	}
	v.Diagnostics = make([]*analysis.Diagnostic, 0, min(nDiag, cacheReadCap))
	for i := uint64(0); i < nDiag; i++ {
		dg := &analysis.Diagnostic{}
		if dg.Code, err = d.string(); err != nil {
			return nil, err
		}
		sev, err := d.varint()
		if err != nil {
			return nil, err
		}
		dg.Sev = analysis.Severity(sev)
		if dg.Pos, err = d.pos_(); err != nil {
			return nil, err
		}
		if dg.Message, err = d.string(); err != nil {
			return nil, err
		}
		nRel, err := d.uvarint()
		if err != nil {
			return nil, err
		}
		dg.Related = make([]analysis.Related, 0, min(nRel, cacheReadCap))
		for j := uint64(0); j < nRel; j++ {
			var rel analysis.Related
			if rel.Pos, err = d.pos_(); err != nil {
				return nil, err
			}
			if rel.Message, err = d.string(); err != nil {
				return nil, err
			}
			dg.Related = append(dg.Related, rel)
		}
		v.Diagnostics = append(v.Diagnostics, dg)
	}
	hasConf, err := d.bool()
	if err != nil {
		return nil, err
	}
	if hasConf {
		w := &analysis.ConflictWire{}
		if w.NumGlobals, err = d.int(); err != nil {
			return nil, err
		}
		// A legitimate input cannot describe more globals than it has bytes;
		// without this bound a forged count would size the rebuilt bitsets.
		if w.NumGlobals < 0 || w.NumGlobals > len(d.b) {
			return nil, fmt.Errorf("progdb: implausible NumGlobals %d", w.NumGlobals)
		}
		nCls, err := d.uvarint()
		if err != nil {
			return nil, err
		}
		w.Classes = make([]analysis.ClassWire, 0, min(nCls, cacheReadCap))
		for i := uint64(0); i < nCls; i++ {
			var cl analysis.ClassWire
			if cl.Entry, err = d.string(); err != nil {
				return nil, err
			}
			if cl.Many, err = d.bool(); err != nil {
				return nil, err
			}
			if cl.Reads, err = d.boundedElems(w.NumGlobals); err != nil {
				return nil, err
			}
			if cl.Writes, err = d.boundedElems(w.NumGlobals); err != nil {
				return nil, err
			}
			w.Classes = append(w.Classes, cl)
		}
		nPairs, err := d.uvarint()
		if err != nil {
			return nil, err
		}
		w.Pairs = make([]analysis.PairWire, 0, min(nPairs, cacheReadCap))
		for i := uint64(0); i < nPairs; i++ {
			var p analysis.PairWire
			if p.A, err = d.int(); err != nil {
				return nil, err
			}
			if p.B, err = d.int(); err != nil {
				return nil, err
			}
			if p.Vars, err = d.boundedElems(w.NumGlobals); err != nil {
				return nil, err
			}
			w.Pairs = append(w.Pairs, p)
		}
		nGuard, err := d.uvarint()
		if err != nil {
			return nil, err
		}
		w.Guarded = make([]analysis.LockGuard, 0, min(nGuard, cacheReadCap))
		for i := uint64(0); i < nGuard; i++ {
			var g analysis.LockGuard
			if g.Gid, err = d.int(); err != nil {
				return nil, err
			}
			if g.Sem, err = d.int(); err != nil {
				return nil, err
			}
			if g.Gid < 0 || g.Gid >= w.NumGlobals || g.Sem < 0 || g.Sem >= w.NumGlobals {
				return nil, fmt.Errorf("progdb: lock guard (%d,%d) out of range [0,%d)", g.Gid, g.Sem, w.NumGlobals)
			}
			w.Guarded = append(w.Guarded, g)
		}
		v.Conflicts = analysis.FromWire(w)
	}
	if v.Facts.Intervals, err = d.int(); err != nil {
		return nil, err
	}
	if v.Facts.Nonzero, err = d.int(); err != nil {
		return nil, err
	}
	if v.Facts.Locksets, err = d.int(); err != nil {
		return nil, err
	}
	nPass, err := d.uvarint()
	if err != nil {
		return nil, err
	}
	if nPass > 0 {
		v.PerPass = make(map[string]int, min(nPass, cacheReadCap))
		for i := uint64(0); i < nPass; i++ {
			k, err := d.string()
			if err != nil {
				return nil, err
			}
			c, err := d.int()
			if err != nil {
				return nil, err
			}
			v.PerPass[k] = c
		}
	}
	return v, nil
}

// boundedElems reads a bitset element list and rejects elements outside
// [0, n): FromWire would otherwise index past the rebuilt set's words.
func (d *decoder) boundedElems(n int) ([]int, error) {
	s, err := d.ints()
	if err != nil {
		return nil, err
	}
	for _, e := range s {
		if e < 0 || e >= n {
			return nil, fmt.Errorf("progdb: bitset element %d out of range [0,%d)", e, n)
		}
	}
	return s, nil
}
