package vm

import (
	"io"
	"runtime"
	"slices"
	"testing"
	"unsafe"

	"ppd/internal/compile"
	"ppd/internal/eblock"
	"ppd/internal/logging"
	"ppd/internal/workloads"
)

// trivial3 is a three-process program that logs a handful of records per
// process: the shape where a fixed per-process logging cost dominates.
const trivial3 = `
shared x;
sem done = 0;
func w(n int) {
	x = n;
	V(done);
}
func main() {
	spawn w(1);
	spawn w(2);
	P(done);
	P(done);
	print(x);
}`

func compileWorkload(t testing.TB, w *workloads.Workload) *compile.Artifacts {
	t.Helper()
	art, err := compile.CompileSource(w.Name, w.Src, eblock.DefaultConfig())
	if err != nil {
		t.Fatalf("compile %s: %v", w.Name, err)
	}
	return art
}

// bytesPerRun is the mean heap bytes allocated by one run of art in mode.
func bytesPerRun(t *testing.T, art *compile.Artifacts, mode Mode) uint64 {
	t.Helper()
	const runs = 20
	exec := func() {
		v := New(art.Prog, Options{Mode: mode, Seed: 1, Quantum: 40, Output: io.Discard})
		if err := v.Run(); err != nil {
			t.Fatal(err)
		}
	}
	exec() // warm any lazily built program state
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for range runs {
		exec()
	}
	runtime.ReadMemStats(&after)
	return (after.TotalAlloc - before.TotalAlloc) / runs
}

// TestLoggedRunAllocBudget pins what logging adds to a run's allocations:
// bytes allocated by a logged run minus those of the bare (ModeRun) run of
// the same program, seed and quantum. Arena chunks start small and double,
// and sync records carve their edge sets from an arena, so short runs pay
// in proportion to what they log rather than a fixed ~46 KB per process.
// Measured on linux/amd64 with go1.24: the trivial 3-process program adds
// 10.7 KB, racy-ticker-2x5 18.7 KB and relay-3x15 59.0 KB; with fixed
// 128-record and 512-binding chunks and heap-grown edge sets they added
// 148.5 KB, 149.6 KB and 202.7 KB. The ceilings sit about 1.5x above the
// measured figures.
func TestLoggedRunAllocBudget(t *testing.T) {
	cases := []struct {
		name   string
		w      *workloads.Workload
		budget uint64
	}{
		{"trivial3", &workloads.Workload{Name: "trivial3", Src: trivial3}, 16 << 10},
		{"racy-ticker-2x5", workloads.RacyTicker(2, 5), 28 << 10},
		{"relay-3x15", workloads.Relay(3, 15), 88 << 10},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			art := compileWorkload(t, tc.w)
			logged, bare := bytesPerRun(t, art, ModeLog), bytesPerRun(t, art, ModeRun)
			extra := int64(logged) - int64(bare)
			t.Logf("logged %d B, bare %d B, logging adds %d B", logged, bare, extra)
			if raceEnabled {
				t.Skip("allocation counts are inflated under the race detector")
			}
			if extra > int64(tc.budget) {
				t.Fatalf("logging adds %d B per run, budget %d B", extra, tc.budget)
			}
		})
	}
}

// recordData is a deep copy of the slice fields a record carves from its
// book's arenas.
type recordData struct {
	locals, globals logging.Pairs
	reads, writes   []int
}

func snapshotRecords(books []*logging.Book) [][]recordData {
	out := make([][]recordData, len(books))
	for i, b := range books {
		for _, r := range b.Records {
			out[i] = append(out[i], recordData{
				slices.Clone(r.Locals), slices.Clone(r.Globals),
				slices.Clone(r.Reads), slices.Clone(r.Writes),
			})
		}
	}
	return out
}

// TestLogSlicesExactCap is the aliasing guard for the book arenas: every
// arena-carved Locals, Globals, Reads and Writes slice of a retained log has
// cap == len, so a consumer appending to one record's slice reallocates
// instead of overwriting the record carved after it.
func TestLogSlicesExactCap(t *testing.T) {
	for _, w := range []*workloads.Workload{
		workloads.TokenRing(3, 20), workloads.ProdCons(40), workloads.RacyTicker(3, 10),
	} {
		t.Run(w.Name, func(t *testing.T) {
			art := compileWorkload(t, w)
			v := New(art.Prog, Options{Mode: ModeLog, Seed: 7, Quantum: 5, Output: io.Discard})
			if err := v.Run(); err != nil {
				t.Fatal(err)
			}
			want := snapshotRecords(v.Log.Books)
			carved := map[string]int{}
			for _, b := range v.Log.Books {
				for i, r := range b.Records {
					check := func(field string, l, c int) {
						if c != l {
							t.Fatalf("pid %d record %d (%s): %s len %d cap %d", b.PID, i, r, field, l, c)
						}
						if l > 0 {
							carved[field]++
						}
					}
					check("Locals", len(r.Locals), cap(r.Locals))
					check("Globals", len(r.Globals), cap(r.Globals))
					check("Reads", len(r.Reads), cap(r.Reads))
					check("Writes", len(r.Writes), cap(r.Writes))
					// Append to copies of the headers, as a consumer might.
					_ = append(r.Locals, logging.VarVal{Idx: -1, Val: logging.Value{Int: -1}})
					_ = append(r.Globals, logging.VarVal{Idx: -1, Val: logging.Value{Int: -1}})
					_ = append(r.Reads, -1)
					_ = append(r.Writes, -1)
				}
			}
			t.Logf("non-empty carves: %v", carved)
			for _, field := range []string{"Globals", "Reads", "Writes"} {
				if carved[field] == 0 {
					t.Fatalf("no record carved a non-empty %s", field)
				}
			}
			got := snapshotRecords(v.Log.Books)
			for pid := range want {
				for i := range want[pid] {
					g, w := got[pid][i], want[pid][i]
					if !slices.EqualFunc(g.locals, w.locals, varValEqual) || !slices.EqualFunc(g.globals, w.globals, varValEqual) ||
						!slices.Equal(g.reads, w.reads) || !slices.Equal(g.writes, w.writes) {
						t.Fatalf("pid %d record %d changed after appends to its neighbours", pid, i)
					}
				}
			}
		})
	}
}

func varValEqual(a, b logging.VarVal) bool {
	return a.Idx == b.Idx && a.Val.Int == b.Val.Int && slices.Equal(a.Val.Arr, b.Val.Arr)
}

// edgeSetBytes runs w streamed to io.Discard and returns the bytes of
// distinct edge-set backing storage its sync and exit records used. The
// tap pins each backing array it sees, so no address is freed and reused
// while it is counted.
func edgeSetBytes(t *testing.T, w *workloads.Workload) int {
	t.Helper()
	art := compileWorkload(t, w)
	v := New(art.Prog, Options{Mode: ModeLog, Seed: 3, Quantum: 7, Output: io.Discard, LogSink: io.Discard})
	seen := map[*int]bool{}
	var pinned [][]int
	total := 0
	v.Log.SetTap(func(_, _ int, r *logging.Record) {
		for _, s := range [][]int{r.Reads, r.Writes} {
			if cap(s) == 0 {
				continue
			}
			if p := unsafe.SliceData(s); !seen[p] {
				seen[p] = true
				pinned = append(pinned, s)
				total += cap(s) * int(unsafe.Sizeof(int(0)))
			}
		}
	})
	if err := v.Run(); err != nil {
		t.Fatal(err)
	}
	runtime.KeepAlive(pinned)
	return total
}

// TestStreamedEdgeSetsBounded checks that under a streaming sink the
// edge-set arena is drawn on only until the recycled records have the
// capacity they need: doubling the run length must leave the bytes behind
// Reads and Writes within a quarter of the shorter run's, where carving
// every sync record afresh would nearly double them.
func TestStreamedEdgeSetsBounded(t *testing.T) {
	short := edgeSetBytes(t, workloads.TokenRing(4, 50))
	long := edgeSetBytes(t, workloads.TokenRing(4, 100))
	t.Logf("edge-set bytes: 4x50 %d, 4x100 %d", short, long)
	if short == 0 {
		t.Fatal("no edge-set storage observed")
	}
	if long > short+short/4 {
		t.Fatalf("edge-set bytes grow with the run: 4x50 %d B, 4x100 %d B", short, long)
	}
}
