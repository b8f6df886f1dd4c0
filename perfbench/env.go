package main

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"strings"
	"syscall"
	"time"
)

// environment is the provenance block every report carries.
type environment struct {
	NumCPU     int
	GOMAXPROCS int
	CPU        string
	GoVersion  string
	Commit     string
}

func probeEnv() environment {
	return environment{
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		CPU:        cpuModel(),
		GoVersion:  runtime.Version(),
		Commit:     commit(),
	}
}

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

// commit is the checkout's HEAD, or "unknown" in a tree without its own
// .git (git is not asked to search parent directories).
func commit() string {
	if _, err := os.Stat(".git"); err != nil {
		return "unknown"
	}
	out, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

func (e environment) print(w io.Writer) {
	fmt.Fprintf(w, "env: nproc %d  GOMAXPROCS %d  cpu %q  go %s  commit %s\n",
		e.NumCPU, e.GOMAXPROCS, e.CPU, e.GoVersion, e.Commit)
}

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
