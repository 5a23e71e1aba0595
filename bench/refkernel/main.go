// Command refkernel times the benchmark's reference kernel, a fixed mix
// of the work the benchmarked programs do: allocation of small linked
// objects for the collector, map updates, sorting, pointer chasing and
// floating point. After one untimed warm-up it reads counts from
// standard input, one per line; for each count n it runs the kernel n
// times and prints each run's time in milliseconds, one per line. It
// exits at the end of its input.
//
// The benchmark keeps it running beside a workload's programs and asks
// for runs only while none of them runs — before they start, after they
// exit, or with the daemon stopped — so nothing the benchmarked programs
// do, their heap, their collector, their background work, can move its
// time; only the host's speed can.
//
//	printf '5\n' | refkernel
package main

import (
	"bufio"
	"fmt"
	"math"
	"math/rand"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"
)

func main() {
	kernel()
	in := bufio.NewScanner(os.Stdin)
	out := bufio.NewWriter(os.Stdout)
	for in.Scan() {
		n, err := strconv.Atoi(strings.TrimSpace(in.Text()))
		if err != nil {
			fmt.Fprintln(os.Stderr, "refkernel:", err)
			os.Exit(2)
		}
		for i := 0; i < n; i++ {
			t0 := time.Now()
			kernel()
			fmt.Fprintf(out, "%.6f\n", float64(time.Since(t0))/float64(time.Millisecond))
		}
		if err := out.Flush(); err != nil {
			os.Exit(1)
		}
	}
}

// sink keeps the kernel's result live.
var sink float64

func kernel() {
	rng := rand.New(rand.NewSource(1))
	type node struct {
		next *node
		v    float64
	}
	nodes := make([]*node, 150000)
	for i := range nodes {
		nodes[i] = &node{v: rng.Float64()}
	}
	for _, n := range nodes {
		n.next = nodes[rng.Intn(len(nodes))]
	}
	m := make(map[int]float64)
	xs := make([]float64, 0, 150000)
	sum := 0.0
	for i := 0; i < 150000; i++ {
		x := rng.Float64()
		m[rng.Intn(1<<14)] += x
		xs = append(xs, x)
		sum += math.Sqrt(x) * math.Exp(-x)
	}
	sort.Float64s(xs)
	n := nodes[0]
	for i := 0; i < 1000000; i++ {
		sum += n.v
		n = n.next
	}
	sink = sum + xs[len(xs)/2] + float64(len(m))
}
