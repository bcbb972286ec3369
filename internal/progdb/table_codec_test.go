package progdb_test

import (
	"bytes"
	"encoding/binary"
	"os"
	"path/filepath"
	"testing"

	"ppd/internal/analysis/absint"
	"ppd/internal/eblock"
	"ppd/internal/progdb"
)

// tableSrc calls, branches and synchronizes, so its table has every kind
// of list: control dependences, call sites, arguments and variables.
const tableSrc = `
shared g;
sem m = 1;
func add(a int, b int) int { return a + b; }
func inc(k int) {
	P(m);
	if (k > 0) { g = add(g, k * 2); }
	V(m);
}
func main() { spawn inc(1); inc(add(g, 3)); }
`

// cloneTable deep-copies a table so a test can forge one field.
func cloneTable(t *progdb.StmtTable) *progdb.StmtTable {
	c := &progdb.StmtTable{Stmts: make([]progdb.StmtRow, len(t.Stmts)), Funcs: make([]progdb.FuncRow, len(t.Funcs))}
	copy(c.Funcs, t.Funcs)
	for i, r := range t.Stmts {
		r.Ctrl = append(r.Ctrl[:0:0], r.Ctrl...)
		calls := make([]progdb.CallSite, len(r.Calls))
		for j, cs := range r.Calls {
			args := make([][]int, len(cs.Args))
			for k, a := range cs.Args {
				args[k] = append(a[:0:0], a...)
			}
			calls[j] = progdb.CallSite{Callee: cs.Callee, Args: args}
		}
		if r.Calls != nil {
			r.Calls = calls
		}
		c.Stmts[i] = r
	}
	return c
}

// assertMiss checks that enc fails to decode and that a cache entry with
// these bytes loads as a clean miss.
func assertMiss(t *testing.T, what string, enc []byte) {
	t.Helper()
	if _, err := progdb.Decode(enc); err == nil {
		t.Errorf("%s: decode accepted the forged table", what)
		return
	}
	dir := t.TempDir()
	c := &progdb.Cache{Dir: dir}
	key := progdb.CacheKey("f.mpl", what, eblock.DefaultConfig(), "off", absint.Fingerprint)
	if err := os.WriteFile(filepath.Join(dir, key+".ppdc"), enc, 0o644); err != nil {
		t.Fatal(err)
	}
	if got, _, err := c.Load(key); err != nil || got != nil {
		t.Errorf("%s: Load = %v, %v; want a clean miss", what, got, err)
	}
}

// TestTableCodecRejectsOutOfRange forges each index the decoder checks:
// a statement's function, a control dependence's statement, a callee, an
// argument variable, the function count, and calls on an absent row.
func TestTableCodecRejectsOutOfRange(t *testing.T) {
	cp := cachedFrom(t, "table.mpl", tableSrc)
	tab := cp.Stmts
	var callRow, ctrlRow int
	for i, r := range tab.Stmts {
		if len(r.Calls) > 0 && len(r.Calls[0].Args) > 0 && len(r.Calls[0].Args[0]) > 0 && callRow == 0 {
			callRow = i
		}
		if len(r.Ctrl) > 0 && ctrlRow == 0 {
			ctrlRow = i
		}
	}
	if callRow == 0 || ctrlRow == 0 {
		t.Fatalf("test program lacks a call with argument variables (%d) or a control dependence (%d)", callRow, ctrlRow)
	}
	vars := func(fn int) int { return cp.Prog.Funcs[fn].NumSlots + len(cp.Prog.Globals) }
	for _, tc := range []struct {
		what  string
		forge func(t *progdb.StmtTable)
	}{
		{"function index", func(t *progdb.StmtTable) { t.Stmts[1].Func = len(t.Funcs) }},
		{"negative function index", func(t *progdb.StmtTable) { t.Stmts[1].Func = -2 }},
		{"control statement past the table", func(t *progdb.StmtTable) { t.Stmts[ctrlRow].Ctrl[0] = 9999 }},
		{"control statement NoStmt", func(t *progdb.StmtTable) { t.Stmts[ctrlRow].Ctrl[0] = 0 }},
		{"callee index", func(t *progdb.StmtTable) { t.Stmts[callRow].Calls[0].Callee = len(t.Funcs) }},
		{"argument variable", func(t *progdb.StmtTable) {
			t.Stmts[callRow].Calls[0].Args[0][0] = vars(t.Stmts[callRow].Func)
		}},
		{"function count", func(t *progdb.StmtTable) { t.Funcs = append(t.Funcs, progdb.FuncRow{Name: "extra"}) }},
		{"slot names past the frame", func(t *progdb.StmtTable) {
			t.Funcs[0].Locals = append(t.Funcs[0].Locals, make([]string, cp.Prog.Funcs[0].NumSlots+1)...)
		}},
		{"calls on an absent row", func(t *progdb.StmtTable) { t.Stmts[0].Calls = t.Stmts[callRow].Calls }},
	} {
		forged := *cp
		forged.Stmts = cloneTable(tab)
		tc.forge(forged.Stmts)
		enc := progdb.Encode(&forged)
		if len(enc) != progdb.EncodedLen(&forged) {
			t.Fatalf("%s: EncodedLen disagrees with Encode", tc.what)
		}
		assertMiss(t, tc.what, enc)
	}
}

// TestCodecRejectsFuncIndex forges a function's own index, which the
// statement table and the flowback builder index by.
func TestCodecRejectsFuncIndex(t *testing.T) {
	cp := cachedFrom(t, "table.mpl", tableSrc)
	cp.Prog.Funcs[0].Idx = len(cp.Prog.Funcs)
	assertMiss(t, "function index", progdb.Encode(cp))
}

// tableHeader locates the table section of enc: the offset of its first
// count and the seven counts plus the blob length.
func tableHeader(t *testing.T, cp *progdb.CachedProgram, enc []byte) (int, [8]uint64) {
	t.Helper()
	bare := *cp
	bare.Stmts = nil
	pos := progdb.EncodedLen(&bare) // the absent table is one byte; a present one starts there too
	if enc[pos-1] != 1 {
		t.Fatalf("no presence byte at %d", pos-1)
	}
	var h [8]uint64
	p := pos
	for i := range h {
		v, n := binary.Uvarint(enc[p:])
		if n <= 0 {
			t.Fatal("bad table header")
		}
		h[i], p = v, p+n
	}
	return pos, h
}

// withHeader re-encodes enc with the table header replaced.
func withHeader(enc []byte, pos int, old, h [8]uint64) []byte {
	oldLen := 0
	for _, v := range old {
		oldLen += len(binary.AppendUvarint(nil, v))
	}
	out := bytes.Clone(enc[:pos])
	for _, v := range h {
		out = binary.AppendUvarint(out, v)
	}
	return append(out, enc[pos+oldLen:]...)
}

// TestTableCodecForgedCounts forges the table header: huge counts, counts
// off by one either way, and a blob one byte short of its texts. Every
// forgery must decode to an error — a clean cache miss — and never panic
// or allocate in proportion to the claimed counts.
func TestTableCodecForgedCounts(t *testing.T) {
	cp := cachedFrom(t, "table.mpl", tableSrc)
	enc := progdb.Encode(cp)
	if _, err := progdb.Decode(enc); err != nil {
		t.Fatalf("valid entry: %v", err)
	}
	pos, h := tableHeader(t, cp, enc)
	names := []string{"rows", "funcs", "locals", "ctrl", "calls", "args", "vars"}
	for i, name := range names {
		for _, delta := range []int64{+1, -1, 1 << 40} {
			if h[i] == 0 && delta < 0 {
				continue
			}
			f := h
			f[i] = uint64(int64(h[i]) + delta)
			assertMiss(t, name+" count forged", withHeader(enc, pos, h, f))
		}
	}
	// A blob one byte short: the last text runs past the blob's end.
	f := h
	f[7]--
	short := withHeader(enc, pos, h, f)
	blobAt := pos
	for _, v := range f {
		blobAt += len(binary.AppendUvarint(nil, v))
	}
	short = append(short[:blobAt+int(f[7])], short[blobAt+int(f[7])+1:]...)
	assertMiss(t, "text past the blob", short)
}
