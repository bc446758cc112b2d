package main

import (
	"bufio"
	"bytes"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// hostInfo is the environment stamp every report starts with.
type hostInfo struct {
	workload       string
	seed           int64
	cpuModel       string
	commit         string
	stealPct       float64
	sleepQuantumUs float64
}

// probeHost reads the CPU model and build revision and measures how long
// a 20µs sleep really takes here. The sleep quantum is not a program
// metric: it identifies a box whose timer differs, which moves every
// back-off in the server and the client receiver.
func probeHost() hostInfo {
	h := hostInfo{cpuModel: "unknown", commit: "unknown"}
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				h.cpuModel = strings.TrimSpace(v)
				break
			}
		}
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				h.commit = s.Value
			}
		}
	}
	const calls = 100
	d := make([]int64, calls)
	for i := range d {
		t0 := time.Now()
		time.Sleep(20 * time.Microsecond)
		d[i] = int64(time.Since(t0))
	}
	sort.Slice(d, func(i, j int) bool { return d[i] < d[j] })
	h.sleepQuantumUs = float64(d[calls/2]) / 1e3
	return h
}

// stealSample is the aggregate cpu line of /proc/stat at one instant.
type stealSample struct{ steal, total uint64 }

func readStat() stealSample {
	f, err := os.Open("/proc/stat")
	if err != nil {
		return stealSample{}
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	if !sc.Scan() {
		return stealSample{}
	}
	fields := strings.Fields(sc.Text())
	var s stealSample
	for i, f := range fields[1:] {
		v, _ := strconv.ParseUint(f, 10, 64)
		if i < 8 { // user nice system idle iowait irq softirq steal
			s.total += v
		}
		if i == 7 {
			s.steal = v
		}
	}
	return s
}

// pct is the share of CPU time stolen by the hypervisor since s.
func (s stealSample) pct() float64 {
	now := readStat()
	if now.total <= s.total {
		return 0
	}
	return 100 * float64(now.steal-s.steal) / float64(now.total-s.total)
}

// peakRSSMB is the process's peak resident set (VmHWM) in MB.
func peakRSSMB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range bytes.Split(b, []byte("\n")) {
		if rest, ok := bytes.CutPrefix(line, []byte("VmHWM:")); ok {
			f := strings.Fields(string(rest))
			if len(f) > 0 {
				kb, _ := strconv.ParseFloat(f[0], 64)
				return kb / 1024
			}
		}
	}
	return 0
}

// procSample is the process-wide state the go.* metrics difference.
type procSample struct {
	at      time.Time
	cpuNs   int64
	mallocs uint64
	numGC   uint32
}

func sampleProc() procSample {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // zero on failure: cpu_util reads 0
	return procSample{
		at:      time.Now(),
		cpuNs:   ru.Utime.Nano() + ru.Stime.Nano(),
		mallocs: ms.Mallocs,
		numGC:   ms.NumGC,
	}
}

// goLayer adds the go.* metrics for the interval since from, over ops
// completed operations.
func goLayer(r *report, from procSample, ops uint64) {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	to := sampleProc()
	cycles := ms.NumGC - from.numGC
	r.layer("go.allocs_per_op", "count", ratio(float64(to.mallocs-from.mallocs), float64(ops)))
	r.layer("go.gc_cycles", "count", float64(cycles))
	// PauseNs is a ring of the last 256 pauses; take those of this
	// interval.
	n := min(int(cycles), len(ms.PauseNs))
	pauses := make([]int64, 0, n)
	for i := 0; i < n; i++ {
		pauses = append(pauses, int64(ms.PauseNs[(int(ms.NumGC)-1-i+len(ms.PauseNs))%len(ms.PauseNs)]))
	}
	r.layerN("go.gc_pause_p99_us", "us", float64(exactQuantile(pauses, 0.99))/1e3, uint64(len(pauses)))
	wall := to.at.Sub(from.at).Nanoseconds()
	r.layer("go.cpu_util", "ratio", ratio(float64(to.cpuNs-from.cpuNs), float64(wall)*float64(runtime.NumCPU())))
}

// exactQuantile sorts v in place and returns its nearest-rank q-quantile
// (0 when empty).
func exactQuantile(v []int64, q float64) int64 {
	if len(v) == 0 {
		return 0
	}
	sort.Slice(v, func(i, j int) bool { return v[i] < v[j] })
	i := int(q*float64(len(v))+0.999999) - 1
	return v[max(0, min(i, len(v)-1))]
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
