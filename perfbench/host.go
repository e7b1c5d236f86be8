package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
)

// host identifies the machine and the code a result was measured with.
// Results from different hosts are not comparable.
type host struct {
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	CPU        string `json:"cpu"`
	GoVersion  string `json:"go"`
	OS         string `json:"os"`
	// Commit is the git revision when the checkout is a repository;
	// Tree is a digest of the Go sources either way.
	Commit string `json:"commit,omitempty"`
	Tree   string `json:"tree"`
}

// stampHost describes this process's host and the source tree under root.
func stampHost(root string) host {
	return host{
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		CPU:        cpuModel(),
		GoVersion:  runtime.Version(),
		OS:         runtime.GOOS + "/" + runtime.GOARCH,
		Commit:     gitHead(root),
		Tree:       treeDigest(root),
	}
}

// sameHost reports whether two results were measured on comparable hosts:
// equal core counts, GOMAXPROCS, CPU model and Go version. The code may
// differ; that is what a comparison measures.
func sameHost(a, b host) bool {
	return a.NumCPU == b.NumCPU && a.GOMAXPROCS == b.GOMAXPROCS && a.CPU == b.CPU && a.GoVersion == b.GoVersion && a.OS == b.OS
}

// cpuModel reads the first "model name" of /proc/cpuinfo ("unknown"
// elsewhere).
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

// cpuTicks reads the host's total and stolen CPU time from /proc/stat, in
// clock ticks; ok is false where that file does not exist.
func cpuTicks() (total, steal uint64, ok bool) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0, false
	}
	line, _, _ := strings.Cut(string(b), "\n")
	fields := strings.Fields(line)
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0, 0, false
	}
	// user nice system idle iowait irq softirq steal
	for i, f := range fields[1:9] {
		v, err := strconv.ParseUint(f, 10, 64)
		if err != nil {
			return 0, 0, false
		}
		total += v
		if i == 7 {
			steal = v
		}
	}
	return total, steal, true
}

// stealMeter measures the share of the host's CPU time the hypervisor
// stole over an interval: time every timing of the interval includes.
type stealMeter struct {
	total, steal uint64
	ok           bool
}

func startSteal() stealMeter {
	t, s, ok := cpuTicks()
	return stealMeter{t, s, ok}
}

// pct returns the stolen share since start in percent, or -1 when unknown.
func (m stealMeter) pct() float64 {
	t, s, ok := cpuTicks()
	if !ok || !m.ok || t <= m.total {
		return -1
	}
	return 100 * float64(s-m.steal) / float64(t-m.total)
}

// gitHead resolves .git/HEAD under root without running git; "" when root is
// not a repository.
func gitHead(root string) string {
	head, err := os.ReadFile(filepath.Join(root, ".git", "HEAD"))
	if err != nil {
		return ""
	}
	ref, isRef := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !isRef {
		return ref
	}
	if b, err := os.ReadFile(filepath.Join(root, ".git", ref)); err == nil {
		return strings.TrimSpace(string(b))
	}
	packed, err := os.ReadFile(filepath.Join(root, ".git", "packed-refs"))
	if err != nil {
		return ""
	}
	for _, line := range strings.Split(string(packed), "\n") {
		if hash, name, ok := strings.Cut(line, " "); ok && name == ref {
			return hash
		}
	}
	return ""
}

// treeDigest hashes the paths and contents of every Go source and go.mod
// under root, skipping dot directories (build output, VCS data).
func treeDigest(root string) string {
	var paths []string
	_ = filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil // unreadable entries are skipped, not fatal
		}
		if d.IsDir() && p != root && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(p, ".go") || d.Name() == "go.mod") {
			paths = append(paths, p)
		}
		return nil
	})
	sort.Strings(paths)
	h := sha256.New()
	for _, p := range paths {
		b, err := os.ReadFile(p)
		if err != nil {
			continue
		}
		rel, _ := filepath.Rel(root, p)
		h.Write([]byte(rel))
		h.Write([]byte{0})
		h.Write(b)
		h.Write([]byte{0})
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}
