package main

import (
	"bufio"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
)

// runMeta is recorded with every result, so a figure can be traced to
// the machine, toolchain, source and inputs that produced it.
type runMeta struct {
	Workload   string            `json:"workload"`
	Seed       int64             `json:"seed"`
	Trace      int               `json:"trace"`
	GOMAXPROCS int               `json:"gomaxprocs"`
	NumCPU     int               `json:"nproc"`
	CPUModel   string            `json:"cpu_model"`
	GoVersion  string            `json:"go_version"`
	Commit     string            `json:"commit"`
	Env        map[string]string `json:"loopsched_env"`
	// StealFrac is the share of the machine's CPU time the hypervisor
	// took for other guests while the benchmark ran (/proc/stat), the
	// main source of run-to-run drift on a shared virtual machine; -1
	// where it cannot be read.
	StealFrac float64 `json:"host_steal_frac"`
}

func collectMeta(workload string, seed int64, trace int, commit string) runMeta {
	m := runMeta{
		Workload:   workload,
		Seed:       seed,
		Trace:      trace,
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		CPUModel:   cpuModel(),
		GoVersion:  runtime.Version(),
		Commit:     commit,
		Env:        map[string]string{},
	}
	for _, kv := range os.Environ() {
		if k, v, ok := strings.Cut(kv, "="); ok && strings.HasPrefix(k, "LOOPSCHED_") {
			m.Env[k] = v
		}
	}
	return m
}

// cpuModel reads the first "model name" from /proc/cpuinfo, or
// "unknown" where there is none.
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// cpuTimes reads the machine-wide steal and total jiffies from the
// "cpu" line of /proc/stat.
func cpuTimes() (steal, total uint64, ok bool) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0, false
	}
	line, _, _ := strings.Cut(string(b), "\n")
	fields := strings.Fields(line)
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0, 0, false
	}
	for i, f := range fields[1:] {
		v, err := strconv.ParseUint(f, 10, 64)
		if err != nil {
			return 0, 0, false
		}
		if i < 8 { // guest time is already counted in user and nice
			total += v
		}
		if i == 7 {
			steal = v
		}
	}
	return steal, total, true
}

// stealSince returns the steal share of CPU time since a cpuTimes
// reading, or -1 where /proc/stat is unreadable.
func stealSince(steal0, total0 uint64, ok0 bool) float64 {
	steal, total, ok := cpuTimes()
	if !ok || !ok0 || total <= total0 {
		return -1
	}
	return float64(steal-steal0) / float64(total-total0)
}
