package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

// defaultSeed is the seed used while a change is developed; heldOutSeed is
// kept back for the final check of a performance claim (README.md).
const (
	defaultSeed = 1
	heldOutSeed = 2026
)

// quantile returns the q-th quantile of xs by linear interpolation between
// closest ranks (xs is not modified). It returns 0 for an empty slice.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// ratio divides, answering 0 for an empty denominator so shares over no
// events stay finite.
func ratio(num, den float64) float64 {
	if den <= 0 {
		return 0
	}
	return num / den
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

func us(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }

// peakRSSMB reads the peak resident set size (VmHWM) of a process from
// /proc; pid 0 means the calling process.
func peakRSSMB(pid int) (float64, error) {
	path := "/proc/self/status"
	if pid != 0 {
		path = fmt.Sprintf("/proc/%d/status", pid)
	}
	f, err := os.Open(path)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) >= 2 && fields[0] == "VmHWM:" {
			kb, err := strconv.ParseFloat(fields[1], 64)
			if err != nil {
				return 0, fmt.Errorf("parsing VmHWM: %w", err)
			}
			return kb / 1024, nil
		}
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, fmt.Errorf("no VmHWM line in %s", path)
}

// environment describes the machine and build a result was measured on.
func environment(cfg config) map[string]any {
	return map[string]any{
		"workload":   cfg.workload,
		"seed":       cfg.seed,
		"seconds":    cfg.seconds,
		"trace":      cfg.traced,
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"cpu":        cpuModel(),
		"commit":     commit(cfg.root),
		// calibration_ms times a fixed computation that involves none of
		// the repository's code: when it moves between runs, the machine
		// changed speed, not the program.
		"calibration_ms": calibrate(),
	}
}

// calibrate returns the median time of a fixed SHA-256 workload in ms.
func calibrate() float64 {
	buf := make([]byte, 4<<20)
	times := make([]float64, 0, 5)
	for i := 0; i < 5; i++ {
		begin := time.Now()
		sha256.Sum256(buf)
		times = append(times, ms(time.Since(begin)))
	}
	return median(times)
}

func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// commit identifies the measured source. Benchmark checkouts carry no git
// metadata, so it is a digest of every Go source and go.mod file in the
// tree (build artefacts excluded): equal digests mean equal code.
func commit(root string) string {
	h := sha256.New()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != root && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") && d.Name() != "go.mod" {
			return nil
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(root, path)
		if err != nil {
			return err
		}
		// hash.Hash writes never fail.
		_, _ = fmt.Fprintf(h, "%s\x00%d\x00", filepath.ToSlash(rel), len(data))
		_, _ = h.Write(data)
		return nil
	})
	if err != nil {
		return "unknown"
	}
	return "src-" + hex.EncodeToString(h.Sum(nil))[:16]
}
