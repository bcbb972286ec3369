package main

import (
	"os"
	"strconv"
	"strings"
	"sync"
	"time"
)

// On a virtual machine the hypervisor can run other guests on this
// machine's CPUs. The guest kernel counts that time as steal. While steal
// is high every answer slows down, for reasons outside PPD, and a run
// that overlaps such a period reads slower as a whole. The benchmark
// therefore samples the steal counter and leaves out answers that
// overlap a contended period, widened by one sampling period on each side
// because the load behind steal does not start or stop on a sample
// boundary; the timed loop runs until it has seconds of uncontended time,
// within a cap.
const (
	stealPeriod = 250 * time.Millisecond
	// stealLimit is the share of CPU time taken as steal above which a
	// period counts as contended. Quiet periods on the reference machine
	// read under 2%, contended ones 15-35%.
	stealLimit = 0.05
)

// stealWatch samples the kernel's steal counter every stealPeriod from
// /proc/stat. Where the counter cannot be read, no period is contended.
type stealWatch struct {
	epoch time.Time
	stop  chan struct{}
	done  chan struct{}
	once  sync.Once

	mu        sync.Mutex
	contended [][2]time.Duration // contended periods, widened, relative to epoch
}

func startStealWatch(epoch time.Time) *stealWatch {
	w := &stealWatch{epoch: epoch, stop: make(chan struct{}), done: make(chan struct{})}
	go w.run()
	return w
}

func (w *stealWatch) run() {
	defer close(w.done)
	steal, total, ok := readSteal()
	if !ok {
		return
	}
	from := time.Since(w.epoch)
	tick := time.NewTicker(stealPeriod)
	defer tick.Stop()
	for {
		select {
		case <-w.stop:
			return
		case <-tick.C:
		}
		s, t, ok := readSteal()
		if !ok {
			return
		}
		to := time.Since(w.epoch)
		if t > total && float64(s-steal)/float64(t-total) > stealLimit {
			w.mu.Lock()
			w.contended = append(w.contended, [2]time.Duration{from - stealPeriod, to + stealPeriod})
			w.mu.Unlock()
		}
		steal, total, from = s, t, to
	}
}

// close stops sampling and waits for the sampler to exit. It may be
// called more than once.
func (w *stealWatch) close() {
	w.once.Do(func() { close(w.stop) })
	<-w.done
}

// clean returns how much of the time since the epoch was uncontended.
func (w *stealWatch) clean() time.Duration {
	now := time.Since(w.epoch)
	return now - w.lost(now)
}

// lost returns how much of [0, upTo] was contended.
func (w *stealWatch) lost(upTo time.Duration) time.Duration {
	w.mu.Lock()
	defer w.mu.Unlock()
	return covered(append([][2]time.Duration(nil), w.contended...), 0, upTo)
}

// overlaps reports whether [from, to] overlaps a contended period. Call
// it after close.
func (w *stealWatch) overlaps(from, to time.Duration) bool {
	for _, p := range w.contended {
		if from < p[1] && to > p[0] {
			return true
		}
	}
	return false
}

// readSteal returns the steal and total jiffies of all CPUs from the
// first line of /proc/stat: "cpu user nice system idle iowait irq softirq
// steal ...". Guest time is already counted in user.
func readSteal() (steal, total uint64, ok bool) {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0, false
	}
	line, _, _ := strings.Cut(string(data), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0, 0, false
	}
	for _, s := range f[1:9] {
		v, err := strconv.ParseUint(s, 10, 64)
		if err != nil {
			return 0, 0, false
		}
		total += v
	}
	steal, _ = strconv.ParseUint(f[8], 10, 64)
	return steal, total, true
}
