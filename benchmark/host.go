package main

import (
	"fmt"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
	"time"
)

// buildDir holds everything the benchmark builds or scratches, inside
// the checkout (the driver points CARGO_TARGET_DIR at the same name).
const buildDir = ".bench_build"

// repoRoot walks up from the working directory to the module root, so
// the benchmark behaves the same from the checkout root (`go run
// ./benchmark`) and from its own directory (`go test`).
func repoRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("benchmark: no go.mod above the working directory")
		}
		dir = parent
	}
}

// scratchDir creates a fresh directory under <root>/.bench_build/tmp.
func scratchDir(root, name string) (string, error) {
	base := filepath.Join(root, buildDir, "tmp")
	if err := os.MkdirAll(base, 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(base, name+"-")
}

// buildNocsimd compiles cmd/nocsimd into the build directory and
// reports how long that took; the time is provenance (build_s), never
// part of a metric.
func buildNocsimd(root string) (bin string, seconds float64, err error) {
	bin = filepath.Join(root, buildDir, "nocsimd")
	start := time.Now()
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/nocsimd")
	cmd.Dir = root
	out, err := cmd.CombinedOutput()
	if err != nil {
		return "", 0, fmt.Errorf("benchmark: go build ./cmd/nocsimd: %v\n%s", err, out)
	}
	return bin, time.Since(start).Seconds(), nil
}

// selfRSSMB is this process's peak resident set so far.
func selfRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// freePort asks the kernel for an unused loopback port. The listener is
// closed again, so a racing process could take the port; the caller's
// readiness wait turns that into a reported failure, not a hang.
func freePort() (int, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer ln.Close()
	return ln.Addr().(*net.TCPAddr).Port, nil
}

// provenance is what a reader needs to reproduce or disbelieve a run.
type provenance struct {
	GitRev     string  `json:"git_rev"`
	GoVersion  string  `json:"go_version"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	NumCPU     int     `json:"num_cpu"`
	Hostname   string  `json:"hostname"`
	Seed       uint64  `json:"seed"`
	Seconds    float64 `json:"seconds"`
	BuildS     float64 `json:"build_s"`
}

func collectProvenance(root string, seed uint64, seconds float64) provenance {
	p := provenance{
		GitRev:     "unknown",
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		Seed:       seed,
		Seconds:    seconds,
	}
	p.Hostname, _ = os.Hostname() // provenance only; empty is fine
	cmd := exec.Command("git", "rev-parse", "HEAD")
	cmd.Dir = root
	if out, err := cmd.Output(); err == nil { // the driver's checkout is not a repository
		p.GitRev = strings.TrimSpace(string(out))
	}
	return p
}
