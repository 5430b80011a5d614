package main

import (
	"slices"
	"syscall"
	"time"
	"unsafe"
)

// The reference host is shared with other tenants, and its speed drifts
// with their load: the same work can take 1.5× as long for tens of
// seconds to minutes at a time, longer than a run. No statistic over one
// run's samples removes a drift that lasts the whole run, so the
// benchmark measures the host's speed alongside the workload and reports
// every time divided by it.
//
// The yardstick is a fixed kernel in this file, so no change to the
// program can make it faster. It is shaped like the simulation's work
// in two halves. The compute half hashes, updates a map, writes at
// random into a cache-sized table and sorts. The memory half reads at
// random from a 64 MiB table, partly as a dependent chain: the
// workloads' worlds are tens to hundreds of MiB, and other tenants slow
// their memory accesses more than their arithmetic. The kernel runs on
// one goroutine: run on both of the reference host's virtual CPUs at
// once, it took twice as long as on one at times when the workloads ran
// no slower. It allocates nothing, so a garbage collection never lands
// inside one kernel and not the next.

// refKernelMs is the kernel's time on the quiet reference host. A
// reported time is the time the work would have taken there: measured
// time × refKernelMs / (the run's mean kernel time).
const refKernelMs = 19.4

// yardShare is the share of each repetition's time spent measuring the
// host's speed after it, so the kernel samples are spread over the run
// as evenly as the workload's own.
const yardShare = 0.08

const (
	kernelN    = 360_000  // compute half: hash-and-update steps
	chainReads = 50_000   // memory half: dependent reads
	freeReads  = 100_000  // memory half: independent reads
	bigWords   = 16 << 20 // memory half: table size in uint32s (64 MiB)
)

type yardstick struct {
	table  []uint32
	counts map[uint64]int32
	sorted []uint64
	mapped []byte    // the memory half's table, outside the Go heap
	big    []uint32  // mapped, as words
	ms     []float64 // kernel times
}

// measure times the kernel until d has passed, at least three times,
// after one untimed run that warms the caches the workload left cold.
// The memory half's table is resident only while it measures, so the
// workloads' peak resident set never includes it.
func (y *yardstick) measure(d time.Duration) {
	if y.table == nil {
		y.table = make([]uint32, 64<<10) // 256 KiB
		y.counts = make(map[uint64]int32, 1<<14)
		y.sorted = make([]uint64, kernelN/8)
		b, err := syscall.Mmap(-1, 0, 4*bigWords, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
		if err != nil {
			panic("yardstick: " + err.Error())
		}
		y.mapped = b
		y.big = unsafe.Slice((*uint32)(unsafe.Pointer(&b[0])), bigWords)
	}
	// Back every page with its own memory: untouched pages all read the
	// kernel's one shared zero page.
	for i := 0; i < bigWords; i += 1024 {
		y.big[i] = uint32(i)
	}
	y.kernel()
	start := time.Now()
	for n := 0; n < 3 || time.Since(start) < d; n++ {
		y.ms = append(y.ms, y.kernel())
	}
	_ = syscall.Madvise(y.mapped, syscall.MADV_DONTNEED)
}

// slowdown is how many times slower than the quiet reference host the
// host ran the kernel during the run. It takes the mean kernel time, as
// the workload's times average over the host's fast and slow moments,
// with the fastest and slowest tenth dropped, so one stalled kernel does
// not move it.
func (y *yardstick) slowdown() float64 {
	s := slices.Clone(y.ms)
	slices.Sort(s)
	cut := len(s) / 10
	s = s[cut : len(s)-cut]
	sum := 0.0
	for _, v := range s {
		sum += v
	}
	return sum / float64(len(s)) / refKernelMs
}

// yardSink keeps the memory half's reads from being optimised away.
var yardSink uint32

// kernel runs the fixed work once and returns its time in ms.
func (y *yardstick) kernel() float64 {
	t := time.Now()
	clear(y.counts)
	x := uint64(1)
	for i := 0; i < kernelN; i++ {
		x = splitmix64(x)
		y.table[x%uint64(len(y.table))] += uint32(x >> 32)
		y.counts[x&0x3fff]++
	}
	for i := range y.sorted {
		x = splitmix64(x)
		y.sorted[i] = x
	}
	slices.Sort(y.sorted)

	// Each chained read's address depends on the value the last one read.
	v := uint32(0)
	for i := 0; i < chainReads; i++ {
		x = splitmix64(x)
		v = y.big[(x^uint64(v))%bigWords]
	}
	sum := v
	for i := 0; i < freeReads; i++ {
		x = splitmix64(x)
		sum += y.big[x%bigWords]
	}
	yardSink += sum
	return float64(time.Since(t)) / 1e6
}

func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	z := x
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}
