package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// quantile returns the nearest-rank q-quantile of sorted samples.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q*float64(len(sorted))+0.5) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

// tailLadder lists the tail percentiles tried, highest first. It stops at
// p90, for two reasons. The chosen percentile must not depend on how many
// ops a faster or slower host completes in the run, and every workload
// completes far more than 100 ops, so p90 always has at least ten samples
// beyond it. And on a shared 2-vCPU host, the ops above p90 are set mostly
// by time the hypervisor steals: across seeds, p99 spread by up to 0.8 of
// its median where p90 spread like the median. The ledger keeps p95, p99
// and p99.9 for inspection.
var tailLadder = []float64{90, 75, 50}

// tail is a tail-latency summary: the value at the highest ladder
// percentile that has at least ten samples beyond it, with that percentile
// and the number of samples beyond it.
type tail struct {
	Value      float64 `json:"value"`
	Percentile float64 `json:"percentile"`
	Beyond     int     `json:"samples_beyond"`
	Samples    int     `json:"samples"`
}

func tailOf(sorted []float64) tail {
	n := len(sorted)
	for _, p := range tailLadder {
		beyond := n - int(p/100*float64(n)+0.5)
		if beyond >= 10 {
			return tail{Value: quantile(sorted, p/100), Percentile: p, Beyond: beyond, Samples: n}
		}
	}
	return tail{Value: quantile(sorted, 1), Percentile: 100, Samples: n}
}

// sortedCopy returns xs sorted ascending, leaving xs untouched.
func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

func median(xs []float64) float64 { return quantile(sortedCopy(xs), 0.5) }

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// hostInfo fingerprints the machine and the code a record was measured
// on, so a later comparison can tell a same-host baseline from a foreign
// one.
type hostInfo struct {
	CPUModel   string `json:"cpu_model"`
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	// Commit is the git revision when the checkout is a git work tree.
	Commit string `json:"commit"`
	// TreeSHA256 digests every source file of the checkout (paths and
	// contents), identifying the code even where no git metadata exists.
	TreeSHA256 string `json:"tree_sha256"`
}

func fingerprint(root string) hostInfo {
	return hostInfo{
		CPUModel:   cpuModel(),
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Commit:     gitCommit(root),
		TreeSHA256: treeDigest(root),
	}
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

// gitCommit resolves HEAD by reading .git directly; it returns "unknown"
// outside a git work tree.
func gitCommit(root string) string {
	head, err := os.ReadFile(filepath.Join(root, ".git", "HEAD"))
	if err != nil {
		return "unknown"
	}
	ref, isRef := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !isRef {
		return ref
	}
	if b, err := os.ReadFile(filepath.Join(root, ".git", ref)); err == nil {
		return strings.TrimSpace(string(b))
	}
	if b, err := os.ReadFile(filepath.Join(root, ".git", "packed-refs")); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if h, r, ok := strings.Cut(line, " "); ok && r == ref {
				return h
			}
		}
	}
	return "unknown"
}

// treeDigest hashes the checkout's regular files, skipping VCS metadata
// and build output.
func treeDigest(root string) string {
	h := sha256.New()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := d.Name()
		if d.IsDir() && path != root && (name == ".git" || name == ".bench_build") {
			return filepath.SkipDir
		}
		if !d.Type().IsRegular() {
			return nil
		}
		rel, _ := filepath.Rel(root, path)
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		defer f.Close()
		io.WriteString(h, rel+"\x00")
		_, err = io.Copy(h, f)
		return err
	})
	if err != nil {
		return "unknown"
	}
	return hex.EncodeToString(h.Sum(nil))
}
