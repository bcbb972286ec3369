package logging

import "testing"

// TestArenaChunksDouble checks the arena growth policy: the first chunk is
// small, each replacement doubles up to the cap, an oversized request gets
// a chunk of its own size, and a chunk is replaced rather than grown, so
// earlier records keep their addresses.
func TestArenaChunksDouble(t *testing.T) {
	b := &Book{}
	var caps []int
	var recs []*Record
	for range 2*recordChunkMax + recordChunkMin {
		r := b.NewRecord()
		r.Gsn = uint64(len(recs))
		recs = append(recs, r)
		if len(b.arena) == 1 {
			caps = append(caps, cap(b.arena))
		}
	}
	want := []int{4, 8, 16, 32, 64, 128, 128}
	if len(caps) != len(want) {
		t.Fatalf("record chunk caps %v, want %v", caps, want)
	}
	for i := range want {
		if caps[i] != want[i] {
			t.Fatalf("record chunk caps %v, want %v", caps, want)
		}
	}
	for i, r := range recs {
		if r.Gsn != uint64(i) {
			t.Fatalf("record %d moved: gsn %d", i, r.Gsn)
		}
	}

	if got := nextChunk(sliceChunkMax, 3*sliceChunkMax, sliceChunkMin, sliceChunkMax); got != 3*sliceChunkMax {
		t.Fatalf("oversized request: chunk cap %d, want %d", got, 3*sliceChunkMax)
	}
	if got := nextChunk(3*sliceChunkMax, 1, sliceChunkMin, sliceChunkMax); got != sliceChunkMax {
		t.Fatalf("chunk after an oversized one: cap %d, want %d", got, sliceChunkMax)
	}
}

// TestTakeExactCap checks that TakePairs and TakeInts carve slices whose
// capacity equals the request, so appending past it reallocates instead of
// writing into the next carve, and that a large enough old slice is reused.
func TestTakeExactCap(t *testing.T) {
	b := &Book{}
	x := b.TakeInts(nil, 3)
	x = append(x, 1, 2, 3)
	y := b.TakeInts(nil, 2)
	y = append(y, 4, 5)
	if cap(x) != 3 || cap(y) != 2 {
		t.Fatalf("caps %d, %d; want 3, 2", cap(x), cap(y))
	}
	x2 := append(x, 99)
	if y[0] != 4 || x2[3] != 99 || &x2[0] == &x[0] {
		t.Fatalf("append past a carve wrote into its neighbour: y = %v", y)
	}
	if z := b.TakeInts(x, 2); cap(z) != 3 || len(z) != 0 || &z[:1][0] != &x[0] {
		t.Fatal("TakeInts did not reuse a large enough slice")
	}
	if z := b.TakeInts(nil, 0); z != nil {
		t.Fatalf("empty request carved %v", z)
	}

	p := b.TakePairs(nil, 2)
	p = append(p, VarVal{Idx: 1}, VarVal{Idx: 2})
	q := b.TakePairs(nil, 1)
	q = append(q, VarVal{Idx: 3})
	_ = append(p, VarVal{Idx: 99})
	if cap(p) != 2 || q[0].Idx != 3 {
		t.Fatalf("pairs: cap %d, neighbour %v", cap(p), q)
	}
}
