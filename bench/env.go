package main

import (
	"bufio"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// envInfo names the machine and build a record was measured on, so two
// records are only compared when they came from comparable settings.
type envInfo struct {
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	GitRev     string  `json:"git_rev"`
	CPUModel   string  `json:"cpu_model"`
	LoadAvg    string  `json:"loadavg_start"`
	BuildS     float64 `json:"build_s"` // time the wrapper spent building bench and dashd; not part of setup_s
}

func readEnv(buildS float64) envInfo {
	e := envInfo{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		GitRev:     "unknown",
		CPUModel:   "unknown",
		LoadAvg:    "unknown",
		BuildS:     buildS,
	}
	// A benchmark checkout need not be a git repository; the revision is
	// informative only.
	if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		e.GitRev = strings.TrimSpace(string(out))
	}
	if b, err := os.ReadFile("/proc/loadavg"); err == nil {
		if f := strings.Fields(string(b)); len(f) >= 3 {
			e.LoadAvg = strings.Join(f[:3], " ")
		}
	}
	if f, err := os.Open("/proc/cpuinfo"); err == nil {
		defer f.Close()
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
				e.CPUModel = strings.TrimSpace(v)
				break
			}
		}
	}
	return e
}

// peakRSSMiB returns VmHWM, the peak resident set of process pid ("self"
// for this process), in MiB.
func peakRSSMiB(pid string) (float64, error) {
	b, err := os.ReadFile("/proc/" + pid + "/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(rest)
			if len(f) == 0 {
				break
			}
			kb, err := strconv.ParseFloat(f[0], 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%s/status", pid)
}

// selfCPU is this process's user+system CPU time.
func selfCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// procCPU is the user+system CPU time of process pid, from /proc/pid/stat
// (clock ticks of 1/100 s, the Linux default).
func procCPU(pid int) (time.Duration, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// The command name may contain spaces; fields after it start at ") ".
	s := string(b)
	i := strings.LastIndexByte(s, ')')
	if i < 0 {
		return 0, fmt.Errorf("malformed /proc/%d/stat", pid)
	}
	f := strings.Fields(s[i+1:])
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc/%d/stat", pid)
	}
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("malformed /proc/%d/stat", pid)
	}
	return time.Duration(ut+st) * 10 * time.Millisecond, nil
}

// timedPhase accumulates the timed windows of a run (one per round) and,
// when traced, the Go runtime's allocation, GC and CPU counters over the
// same windows.
type timedPhase struct {
	traced bool

	open  bool
	t0    time.Time
	snap0 runtimeSnap

	wall    time.Duration
	windows []time.Duration // each window's length, in order
	rt      runtimeSnap     // summed deltas
}

type runtimeSnap struct {
	allocBytes uint64
	gcCycles   uint32
	pauseNs    uint64
	cpu        time.Duration
}

func readRuntime() runtimeSnap {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return runtimeSnap{allocBytes: m.TotalAlloc, gcCycles: m.NumGC, pauseNs: m.PauseTotalNs, cpu: selfCPU()}
}

// begin opens a window at t (which may lie slightly in the past, e.g. the
// start of the first operation). A second begin before end is ignored.
func (p *timedPhase) begin(t time.Time) {
	if p.open {
		return
	}
	p.open, p.t0 = true, t
	if p.traced {
		p.snap0 = readRuntime()
	}
}

// end closes the open window at t.
func (p *timedPhase) end(t time.Time) {
	if !p.open {
		return
	}
	p.open = false
	p.wall += t.Sub(p.t0)
	p.windows = append(p.windows, t.Sub(p.t0))
	if p.traced {
		s := readRuntime()
		p.rt.allocBytes += s.allocBytes - p.snap0.allocBytes
		p.rt.gcCycles += s.gcCycles - p.snap0.gcCycles
		p.rt.pauseNs += s.pauseNs - p.snap0.pauseNs
		p.rt.cpu += s.cpu - p.snap0.cpu
	}
}
