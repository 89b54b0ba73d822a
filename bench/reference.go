package main

import (
	"sort"
	"syscall"
	"time"
)

// refNominal fixes the scale of setup_s: a build is reported as the CPU
// time it would take on a machine where the median reference pass takes
// refNominal. It is a constant, so setup_s compares across runs and
// commits; README.md records the pass's measured times.
const refNominal = 14 * time.Millisecond

// refShare is the time spent on reference passes as a share of the
// set-up builds' time, spread between the builds.
const refShare = 0.25

// cpuTime returns the CPU time f takes across the process: its own
// goroutine and the collector's workers. Time spent waiting for a core
// is not in it, nor, on a virtual machine whose kernel accounts steal
// time, time the hypervisor gave the core to another guest.
func cpuTime(f func()) time.Duration {
	c0 := processCPU()
	f()
	return processCPU() - c0
}

func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(err) // RUSAGE_SELF with a valid pointer cannot fail
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// refSink keeps the compiler from discarding the reference's work.
var refSink int

type refNode struct {
	prev *refNode
	v    int
}

// reference runs one pass of a fixed computation that calls none of the
// system's code: the yardstick set-up builds are scaled by. Set-up is
// allocation-heavy, so the pass is too. It fills a map, sorts a slice,
// links nodes to random earlier ones and walks the links, and churns
// short-lived slices. On a shared machine the time of a set-up build and
// of this pass rise and fall together with the neighbours' load on the
// caches and memory, which a plain arithmetic loop barely feels.
func reference() {
	const n = 60_000
	x := uint64(88172645463325252)
	next := func() uint64 {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		return x
	}
	m := make(map[int]int)
	keys := make([]int, 0, n)
	nodes := make([]*refNode, 0, n)
	for i := 0; i < n; i++ {
		r := next()
		m[int(r%1_000_000)] += i
		keys = append(keys, int(r%1_000_000))
		nd := &refNode{v: i}
		if i > 0 {
			nd.prev = nodes[int(r%uint64(i))]
		}
		nodes = append(nodes, nd)
	}
	sort.Ints(keys)
	sum := 0
	for _, nd := range nodes {
		for k := nd; k != nil && k.v > nd.v-40; k = k.prev {
			sum += k.v
		}
	}
	for round := 0; round < 10; round++ {
		bufs := make([][]int, 200)
		for i := range bufs {
			bufs[i] = make([]int, 64+int(next()%64))
		}
		sum += len(bufs[int(next()%200)])
	}
	refSink = sum + len(m) + keys[n/2]
}
