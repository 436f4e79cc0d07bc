package main

import (
	"bufio"
	"os"
	"runtime/metrics"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// runtimeSample is a point-in-time reading of the Go runtime's cumulative
// allocation and CPU accounting.
type runtimeSample struct {
	allocBytes uint64
	gcCPU      float64 // cumulative GC CPU seconds
	totalCPU   float64 // cumulative CPU seconds available to the process
}

var runtimeMetricNames = []string{
	"/gc/heap/allocs:bytes",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
}

func sampleRuntime() runtimeSample {
	s := make([]metrics.Sample, len(runtimeMetricNames))
	for i, n := range runtimeMetricNames {
		s[i].Name = n
	}
	metrics.Read(s)
	var out runtimeSample
	if s[0].Value.Kind() == metrics.KindUint64 {
		out.allocBytes = s[0].Value.Uint64()
	}
	if s[1].Value.Kind() == metrics.KindFloat64 {
		out.gcCPU = s[1].Value.Float64()
	}
	if s[2].Value.Kind() == metrics.KindFloat64 {
		out.totalCPU = s[2].Value.Float64()
	}
	return out
}

// gcFrac is the share of CPU time spent in the garbage collector between
// two samples.
func (s runtimeSample) gcFrac(before runtimeSample) float64 {
	total := s.totalCPU - before.totalCPU
	if total <= 0 {
		return 0
	}
	return (s.gcCPU - before.gcCPU) / total
}

// maxRSSKB is the peak resident set of this process or of the largest
// child process it has reaped (the fleet-study workers), whichever is
// larger.
func maxRSSKB() int64 {
	self := int64(0)
	if f, err := os.Open("/proc/self/status"); err == nil {
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			line := sc.Text()
			if strings.HasPrefix(line, "VmHWM:") {
				fields := strings.Fields(line)
				if len(fields) >= 2 {
					self, _ = strconv.ParseInt(fields[1], 10, 64)
				}
			}
		}
		f.Close()
	}
	if self == 0 {
		var ru syscall.Rusage
		if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) == nil {
			self = int64(ru.Maxrss)
		}
	}
	var ru syscall.Rusage
	if syscall.Getrusage(syscall.RUSAGE_CHILDREN, &ru) == nil {
		self = max(self, int64(ru.Maxrss))
	}
	return self
}

// sleepUntil sleeps until t (no-op when t has passed).
func sleepUntil(t time.Time) {
	if d := time.Until(t); d > 0 {
		time.Sleep(d)
	}
}
