package main

import (
	"os"
	"strconv"
	"strings"
	"time"
)

// cpuTicks is the aggregate "cpu" line of /proc/stat.
type cpuTicks struct{ total, steal uint64 }

// readCPUTicks samples the host's aggregate CPU counters; the zero value
// when /proc/stat is unreadable (the share then reads 0).
func readCPUTicks() cpuTicks {
	raw, err := os.ReadFile("/proc/stat")
	if err != nil {
		return cpuTicks{}
	}
	line, _, _ := strings.Cut(string(raw), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return cpuTicks{}
	}
	var t cpuTicks
	// user nice system idle iowait irq softirq steal; guest time is
	// already inside user, so the first eight columns are the total.
	for i, s := range f[1:9] {
		v, _ := strconv.ParseUint(s, 10, 64)
		t.total += v
		if i == 7 {
			t.steal = v
		}
	}
	return t
}

// stealShare is the share of all CPU time between two samples that the
// hypervisor gave to someone else.
func stealShare(from, to cpuTicks) float64 {
	if to.total <= from.total {
		return 0
	}
	return float64(to.steal-from.steal) / float64(to.total-from.total)
}

// tick is the unit of /proc/stat's counters: USER_HZ, 100 on every Linux.
const tick = 10 * time.Millisecond

// stolen is the time the hypervisor gave to other guests between the two
// samples, summed over the CPUs.
func stolen(from, to cpuTicks) time.Duration {
	if to.steal <= from.steal {
		return 0
	}
	return time.Duration(to.steal-from.steal) * tick
}

// netOfSteal takes the stolen time out of a wall-clock duration spent
// busy. At most three quarters are taken out: past that the counters are
// not telling the work's story.
//
// It is for work that runs long enough that a stolen timeslice cannot
// miss it. On a shared host such work always contains its share of the
// neighbours' activity, so its wall time says as much about them as
// about the program: one MineStore pass read 430 to 850 ms within a
// minute in scratch, and 410 to 480 ms net of steal; one build's
// scatter searches read 12.8 to 23.4 ms in six back-to-back runs, in
// step with the steal share of each run. Microsecond ops need no
// correction (and the 10 ms counters could not give one): steal arrives
// in chunks of 10 ms and more, which a short op either misses or is
// thrown out for by the quartile over rounds.
func netOfSteal[T float64 | time.Duration](busy, stolen T) T {
	return max(busy-stolen, busy/4)
}

// stamp is a point in time with the steal counters read at it.
type stamp struct {
	at    time.Time
	ticks cpuTicks
}

func now() stamp { return stamp{time.Now(), readCPUTicks()} }

// heavy runs an op that a stolen timeslice cannot miss and reports, with
// its start and end, the time stolen while it ran.
func heavy(fn func()) (start, end time.Time, lost time.Duration) {
	before := now()
	fn()
	after := now()
	return before.at, after.at, stolen(before.ticks, after.ticks)
}

// loadAvg1 is the one-minute load average, 0 when unreadable.
func loadAvg1() float64 {
	raw, err := os.ReadFile("/proc/loadavg")
	if err != nil {
		return 0
	}
	f := strings.Fields(string(raw))
	if len(f) == 0 {
		return 0
	}
	v, _ := strconv.ParseFloat(f[0], 64)
	return v
}

// peakRSSMB is the process's resident-set high-water mark (VmHWM).
func peakRSSMB() float64 {
	raw, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(rest)
			if len(f) == 0 {
				return 0
			}
			kb, _ := strconv.ParseFloat(f[0], 64)
			return kb / 1024
		}
	}
	return 0
}

// cpuModel is the first "model name" of /proc/cpuinfo.
func cpuModel() string {
	raw, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
