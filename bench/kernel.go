package main

import (
	"runtime"
	"time"
)

// The reference kernel is a fixed piece of ordinary Go work that touches
// nothing of the program under test and allocates nothing: 80k lookups in a
// 16k-entry map, 200k steps that each hash a counter and add two words
// gathered from a 1 MB table, and eight independent arithmetic chains.
//
// It exists because the hosts this benchmark runs on are shared. When the
// other hardware thread of the core is busy the same instructions take up to
// 1.9 times as long, for seconds to minutes at a time, and whole runs
// contain no quiet moment. What slows most is code that keeps many
// independent operations in flight, as the program's hashing, allocating
// and collecting do, and the three parts were chosen because they slow about
// as much (bench/README.md has the measurements). The kernel runs between
// the segments of every block, and every time a run reports is the work's
// time in a block divided by how much slower than nominal the kernel ran in
// that same block: the work measured in kernel runs. kernelNominalMs
// converts kernel runs to milliseconds; it is a unit, the same for every run
// and commit, and cancels out of every comparison. The kernel's code is a
// frozen part of the benchmark: changing it, or the Go toolchain that
// compiles it and the program, moves every time-based value.
var (
	kernelMap   = map[uint64]uint64{}
	kernelTable [1 << 18]uint32 // 1 MB
	kernelSink  uint64
)

func init() {
	for i := uint64(0); i < 1<<14; i++ {
		kernelMap[i] = i * 7
	}
	for i := range kernelTable {
		kernelTable[i] = uint32(i) * 2654435761
	}
}

func refKernel() {
	var s, acc uint64 = 7, 0
	for n := 0; n < 80000; n++ {
		s = s*6364136223846793005 + 1442695040888963407
		acc += kernelMap[(s>>33)&(1<<14-1)]
	}

	const mask = uint64(len(kernelTable) - 1)
	for n := 0; n < 200000; n++ {
		s = s*6364136223846793005 + 1442695040888963407
		x := kernelTable[(s>>30)&mask]
		y := kernelTable[((s*0x9e3779b97f4a7c15)>>40)&mask]
		acc += uint64(x)*3 ^ uint64(y)>>2
	}

	a, b, c, d, e, f, g, h := uint64(1), uint64(2), uint64(3), uint64(4), uint64(5), uint64(6), uint64(7), uint64(8)
	for n := 0; n < 800000; n++ {
		a = a*3 + 1
		b ^= b << 13
		c += a >> 3
		d = d*5 + 7
		e ^= e >> 7
		f += d >> 5
		g = g*9 + 3
		h ^= h << 17
	}
	kernelSink += acc + a + b + c + d + e + f + g + h
}

// kernelNominalMs is the kernel's time on the quiet reference host: the
// unit in which times at reference speed are expressed.
const kernelNominalMs = 3.0

// settledKernel collects garbage, then runs the reference kernel once and
// returns its time in ms. The collection finishes any cycle the preceding
// segment started, so the program's collector never shares the kernel's
// time slice; it also means every segment starts from a collected heap.
func settledKernel() float64 {
	runtime.GC()
	t0 := time.Now()
	refKernel()
	return float64(time.Since(t0)) / float64(time.Millisecond)
}
