package progdb

import (
	"encoding/binary"
	"errors"
	"fmt"

	"ppd/internal/ast"
	"ppd/internal/bytecode"
)

// The statement table's encoding. Every name and text in the table is
// stored once, in one string blob, and decoded rows slice it; every list
// (control dependences, call sites, arguments, variables, slot names) is
// carved from one arena per element type. A header gives the arena sizes
// up front, so decoding allocates a fixed number of times however many
// statements the program has.
//
//	present byte
//	counts:  rows, funcs, locals, ctrl, calls, args, vars (uvarints)
//	blob:    string (function names and slot names, then statement texts)
//	funcs:   name length, slot count, slot name lengths
//	rows:    func, line, col (varints), text length, flags byte,
//	         ctrl count + statement IDs, call count + per call:
//	         callee, argument count + per argument: var count + vars

const (
	flagSync   = 1 << iota // StmtRow.Sync
	flagBranch             // StmtRow.Branch
)

// minRowLen is the fewest bytes a row encodes to: three varints, the text
// length, the flags byte and the two list counts.
const minRowLen = 7

// tableCounts are the table's arena sizes and blob length.
type tableCounts struct {
	rows, funcs, locals, ctrl, calls, args, vars, blob int
}

func countTable(t *StmtTable) tableCounts {
	c := tableCounts{rows: len(t.Stmts), funcs: len(t.Funcs)}
	for i := range t.Funcs {
		c.locals += len(t.Funcs[i].Locals)
		c.blob += len(t.Funcs[i].Name)
		for _, l := range t.Funcs[i].Locals {
			c.blob += len(l)
		}
	}
	for i := range t.Stmts {
		r := &t.Stmts[i]
		c.blob += len(r.Text)
		c.ctrl += len(r.Ctrl)
		c.calls += len(r.Calls)
		for _, cs := range r.Calls {
			c.args += len(cs.Args)
			for _, a := range cs.Args {
				c.vars += len(a)
			}
		}
	}
	return c
}

func (c tableCounts) list() [7]int {
	return [7]int{c.rows, c.funcs, c.locals, c.ctrl, c.calls, c.args, c.vars}
}

func rowFlags(r *StmtRow) byte {
	var f byte
	if r.Sync {
		f |= flagSync
	}
	if r.Branch {
		f |= flagBranch
	}
	return f
}

func appendTable(b []byte, t *StmtTable) []byte {
	if t == nil {
		return append(b, 0)
	}
	b = append(b, 1)
	c := countTable(t)
	for _, n := range c.list() {
		b = binary.AppendUvarint(b, uint64(n))
	}
	b = binary.AppendUvarint(b, uint64(c.blob))
	for i := range t.Funcs {
		b = append(b, t.Funcs[i].Name...)
		for _, l := range t.Funcs[i].Locals {
			b = append(b, l...)
		}
	}
	for i := range t.Stmts {
		b = append(b, t.Stmts[i].Text...)
	}
	for i := range t.Funcs {
		f := &t.Funcs[i]
		b = binary.AppendUvarint(b, uint64(len(f.Name)))
		b = binary.AppendUvarint(b, uint64(len(f.Locals)))
		for _, l := range f.Locals {
			b = binary.AppendUvarint(b, uint64(len(l)))
		}
	}
	for i := range t.Stmts {
		r := &t.Stmts[i]
		b = binary.AppendVarint(b, int64(r.Func))
		b = binary.AppendVarint(b, int64(r.Line))
		b = binary.AppendVarint(b, int64(r.Col))
		b = binary.AppendUvarint(b, uint64(len(r.Text)))
		b = append(b, rowFlags(r))
		b = binary.AppendUvarint(b, uint64(len(r.Ctrl)))
		for _, id := range r.Ctrl {
			b = binary.AppendUvarint(b, uint64(id))
		}
		b = binary.AppendUvarint(b, uint64(len(r.Calls)))
		for _, cs := range r.Calls {
			b = binary.AppendUvarint(b, uint64(cs.Callee))
			b = binary.AppendUvarint(b, uint64(len(cs.Args)))
			for _, a := range cs.Args {
				b = binary.AppendUvarint(b, uint64(len(a)))
				for _, v := range a {
					b = binary.AppendUvarint(b, uint64(v))
				}
			}
		}
	}
	return b
}

func tableLen(t *StmtTable) int {
	if t == nil {
		return 1
	}
	c := countTable(t)
	n := 1
	for _, k := range c.list() {
		n += uvarintLen(uint64(k))
	}
	n += uvarintLen(uint64(c.blob)) + c.blob
	for i := range t.Funcs {
		f := &t.Funcs[i]
		n += uvarintLen(uint64(len(f.Name))) + uvarintLen(uint64(len(f.Locals)))
		for _, l := range f.Locals {
			n += uvarintLen(uint64(len(l)))
		}
	}
	for i := range t.Stmts {
		r := &t.Stmts[i]
		n += varintLen(int64(r.Func)) + varintLen(int64(r.Line)) + varintLen(int64(r.Col)) +
			uvarintLen(uint64(len(r.Text))) + 1
		n += uvarintLen(uint64(len(r.Ctrl)))
		for _, id := range r.Ctrl {
			n += uvarintLen(uint64(id))
		}
		n += uvarintLen(uint64(len(r.Calls)))
		for _, cs := range r.Calls {
			n += uvarintLen(uint64(cs.Callee)) + uvarintLen(uint64(len(cs.Args)))
			for _, a := range cs.Args {
				n += uvarintLen(uint64(len(a)))
				for _, v := range a {
					n += uvarintLen(uint64(v))
				}
			}
		}
	}
	return n
}

// arena hands out consecutive sub-slices of one preallocated slice.
type arena[T any] struct {
	s    []T
	used int
}

var errArena = errors.New("progdb: statement table list overruns its arena")

// take returns the next n elements (nil for n == 0), capacity-limited so
// an append cannot reach a neighbour's elements.
func (a *arena[T]) take(n uint64) ([]T, error) {
	if n > uint64(len(a.s)-a.used) {
		return nil, errArena
	}
	if n == 0 {
		return nil, nil
	}
	lo, hi := a.used, a.used+int(n)
	a.used = hi
	return a.s[lo:hi:hi], nil
}

func (a *arena[T]) full() bool { return a.used == len(a.s) }

// tableDecoder decodes one table, slicing names and texts from the blob.
type tableDecoder struct {
	*decoder
	blob string
	boff int
}

// text slices the next string of the blob.
func (td *tableDecoder) text() (string, error) {
	n, err := td.uvarint()
	if err != nil {
		return "", err
	}
	if n > uint64(len(td.blob)-td.boff) {
		return "", fmt.Errorf("progdb: text of %d bytes past the blob's end", n)
	}
	s := td.blob[td.boff : td.boff+int(n)]
	td.boff += int(n)
	return s, nil
}

// table decodes a statement table and checks it against prog: one
// function row per function, and every function, statement and variable
// index in range.
func (d *decoder) table(prog *bytecode.Program) (*StmtTable, error) {
	present, err := d.bool()
	if err != nil || !present {
		return nil, err
	}
	var counts [7]uint64
	for i := range counts {
		if counts[i], err = d.uvarint(); err != nil {
			return nil, err
		}
		// Every element encodes to at least one byte; rows to minRowLen.
		if counts[i] > uint64(len(d.b)-d.pos) {
			return nil, fmt.Errorf("progdb: implausible statement table count %d", counts[i])
		}
	}
	nRows, nFuncs := counts[0], counts[1]
	if nRows > uint64(len(d.b)-d.pos)/minRowLen {
		return nil, fmt.Errorf("progdb: implausible statement count %d", nRows)
	}
	if nFuncs != uint64(len(prog.Funcs)) {
		return nil, fmt.Errorf("progdb: statement table has %d functions, program %d", nFuncs, len(prog.Funcs))
	}
	td := &tableDecoder{decoder: d}
	if td.blob, err = d.string(); err != nil {
		return nil, err
	}
	locals := arena[string]{s: make([]string, counts[2])}
	ctrl := arena[ast.StmtID]{s: make([]ast.StmtID, counts[3])}
	calls := arena[CallSite]{s: make([]CallSite, counts[4])}
	args := arena[[]int]{s: make([][]int, counts[5])}
	vars := arena[int]{s: make([]int, counts[6])}

	t := &StmtTable{Stmts: make([]StmtRow, nRows), Funcs: make([]FuncRow, nFuncs)}
	for i := range t.Funcs {
		f := &t.Funcs[i]
		if f.Name, err = td.text(); err != nil {
			return nil, err
		}
		n, err := d.uvarint()
		if err != nil {
			return nil, err
		}
		if n > uint64(prog.Funcs[i].NumSlots) {
			return nil, fmt.Errorf("progdb: function %d names %d slots, has %d", i, n, prog.Funcs[i].NumSlots)
		}
		if f.Locals, err = locals.take(n); err != nil {
			return nil, err
		}
		for j := range f.Locals {
			if f.Locals[j], err = td.text(); err != nil {
				return nil, err
			}
		}
	}
	nVars := func(fn int) int { return prog.Funcs[fn].NumSlots + len(prog.Globals) }
	for i := range t.Stmts {
		r := &t.Stmts[i]
		if r.Func, err = d.int(); err != nil {
			return nil, err
		}
		if r.Func < -1 || r.Func >= len(t.Funcs) {
			return nil, fmt.Errorf("progdb: statement %d in function %d out of range", i, r.Func)
		}
		if r.Line, err = d.int(); err != nil {
			return nil, err
		}
		if r.Col, err = d.int(); err != nil {
			return nil, err
		}
		if r.Text, err = td.text(); err != nil {
			return nil, err
		}
		flags, err := d.byte()
		if err != nil {
			return nil, err
		}
		if flags&^(flagSync|flagBranch) != 0 {
			return nil, fmt.Errorf("progdb: bad statement flags %#x", flags)
		}
		r.Sync, r.Branch = flags&flagSync != 0, flags&flagBranch != 0
		n, err := d.uvarint()
		if err != nil {
			return nil, err
		}
		if r.Ctrl, err = ctrl.take(n); err != nil {
			return nil, err
		}
		for j := range r.Ctrl {
			id, err := d.uvarint()
			if err != nil {
				return nil, err
			}
			if id == 0 || id >= nRows {
				return nil, fmt.Errorf("progdb: control dependence on statement %d out of range", id)
			}
			r.Ctrl[j] = ast.StmtID(id)
		}
		if n, err = d.uvarint(); err != nil {
			return nil, err
		}
		if n > 0 && r.Func < 0 {
			return nil, fmt.Errorf("progdb: absent statement %d has calls", i)
		}
		if r.Calls, err = calls.take(n); err != nil {
			return nil, err
		}
		for j := range r.Calls {
			cs := &r.Calls[j]
			callee, err := d.uvarint()
			if err != nil {
				return nil, err
			}
			if callee >= nFuncs {
				return nil, fmt.Errorf("progdb: callee %d out of range", callee)
			}
			cs.Callee = int(callee)
			if n, err = d.uvarint(); err != nil {
				return nil, err
			}
			if cs.Args, err = args.take(n); err != nil {
				return nil, err
			}
			for a := range cs.Args {
				if n, err = d.uvarint(); err != nil {
					return nil, err
				}
				if cs.Args[a], err = vars.take(n); err != nil {
					return nil, err
				}
				for v := range cs.Args[a] {
					x, err := d.uvarint()
					if err != nil {
						return nil, err
					}
					if x >= uint64(nVars(r.Func)) {
						return nil, fmt.Errorf("progdb: argument variable %d out of range", x)
					}
					cs.Args[a][v] = int(x)
				}
			}
		}
	}
	if !locals.full() || !ctrl.full() || !calls.full() || !args.full() || !vars.full() || td.boff != len(td.blob) {
		return nil, errors.New("progdb: statement table counts disagree with its rows")
	}
	return t, nil
}
