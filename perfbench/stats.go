package main

import (
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics; 0 for no samples. xs is not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// ratio is a/b, or 0 when b is 0 (a layer the workload never reaches).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func rusage() syscall.Rusage {
	var ru syscall.Rusage
	// RUSAGE_SELF cannot fail on Linux; a zero struct reads as no usage.
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return ru
}

// peakRSSMB is this process's peak resident set, in MiB.
func peakRSSMB() float64 { return float64(rusage().Maxrss) / 1024 }

// liveHeapMB is the heap the process still holds after a collection,
// in MiB: the live ring's data and state, free of the garbage collector's
// timing.
func liveHeapMB() float64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapAlloc) / (1 << 20)
}

// cpuTime is this process's user plus system CPU time so far.
func cpuTime() time.Duration {
	ru := rusage()
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func micros(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }

func msOf(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// A stamp is one reading of the clocks an interval's effective time is
// computed from.
type stamp struct {
	wall  time.Time
	cpu   time.Duration // this process, user plus system, all threads
	steal time.Duration // the VM's, summed over its CPUs
}

func readStamp() stamp {
	return stamp{wall: time.Now(), cpu: cpuTime(), steal: stealTime()}
}

// userHZ is the unit of /proc/stat's CPU counters on Linux.
const userHZ = 100

// stealTime reads the time the hypervisor ran something else while this
// VM's CPUs wanted to run (the eighth counter of /proc/stat's cpu line);
// 0 where there is no such counter.
func stealTime() time.Duration {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	line, _, _ := strings.Cut(string(data), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0
	}
	ticks, err := strconv.ParseInt(f[8], 10, 64)
	if err != nil {
		return 0
	}
	return time.Duration(ticks) * time.Second / userHZ
}

// effective is the wall time from a to b less the share the hypervisor
// stole from this process: wall × cpu / (cpu + steal). Over the interval
// the process asked for cpu+steal CPU-seconds and got cpu of them. It is
// the wall time where nothing steals, and on a machine that reports no
// steal it is the wall time. It suits CPU-bound intervals of a process
// that is the machine's only load, as the benchmark's children are.
func effective(a, b stamp) time.Duration {
	wall := b.wall.Sub(a.wall)
	cpu, steal := b.cpu-a.cpu, b.steal-a.steal
	if steal <= 0 || cpu <= 0 {
		return wall
	}
	return time.Duration(float64(wall) * float64(cpu) / float64(cpu+steal))
}
