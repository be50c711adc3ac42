package kwsbench

import (
	"encoding/json"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"time"
)

// The benchmark shares its host with other machines' work, and the host's
// speed drifts by 10-20% from one run to the next: a fixed amount of CPU
// work takes that much longer, in wall time and in CPU time alike. So the
// timed window alternates one-second load slices with short runs of a
// fixed calibration kernel while the server is idle, and every end-to-end
// time is scaled by the kernel's median speed relative to nominalRate. On
// the 2-CPU host the benchmark was written on, over ten seeds per workload
// while the host slowed by 45%, this cut the run-to-run spread
// (interquartile range over median) of latency and throughput from
// 0.22-0.46 raw to 0.03-0.18 scaled. The kernel uses only the standard
// library, so changes to the program leave it alone, and it mixes the kinds
// of work a request does (allocation, maps, sorting, JSON) so that a slower
// host slows both alike. Work the program still does after a reply is sent
// would run during calibration and read as a slower host.

// nominalRate is the kernel rate, in iterations per second per GOMAXPROCS
// goroutine, that counts as speed 1. It was the typical rate on the host
// the benchmark was written on; it only sets the unit.
const nominalRate = 1700

const (
	// calSlice is how long each calibration run lasts.
	calSlice = 250 * time.Millisecond
	// loadSlice is how long the load runs between calibrations.
	loadSlice = time.Second
)

type calRecord struct {
	ID    int            `json:"id"`
	Name  string         `json:"name"`
	Vals  []float64      `json:"vals"`
	Index map[string]int `json:"index"`
}

// kernel is one unit of calibration work; it returns a value that depends
// on all of it, so none of it can be optimized away.
func kernel() int {
	m := make(map[string]int, 64)
	xs := make([]int, 0, 512)
	for i := 0; i < 512; i++ {
		m["k"+strconv.Itoa((i*7919)%1000)] += i
		xs = append(xs, (i*104729)%997)
	}
	sort.Ints(xs)
	b, err := json.Marshal(calRecord{ID: xs[7], Name: "calibration", Vals: []float64{1.5, 2.5}, Index: m})
	if err != nil {
		panic(err)
	}
	var back calRecord
	if err := json.Unmarshal(b, &back); err != nil {
		panic(err)
	}
	return len(b) + len(back.Index)
}

// calibrate runs the kernel on GOMAXPROCS goroutines for calSlice and
// returns the host's speed: the kernel rate per goroutine over nominalRate.
func calibrate() float64 {
	procs := runtime.GOMAXPROCS(0)
	var mu sync.Mutex
	iters, sink := 0, 0
	var wg sync.WaitGroup
	start := time.Now()
	for g := 0; g < procs; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			n, s := 0, 0
			for time.Since(start) < calSlice {
				s += kernel()
				n++
			}
			mu.Lock()
			iters += n
			sink += s
			mu.Unlock()
		}()
	}
	wg.Wait()
	if sink == 0 {
		return 0
	}
	return float64(iters) / time.Since(start).Seconds() / float64(procs) / nominalRate
}
