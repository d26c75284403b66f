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
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
)

// stamp names the machine and build a result was measured on.
type stamp struct {
	Workload   string `json:"workload"`
	Seed       int64  `json:"seed"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	MemTotalMB int64  `json:"mem_total_mb"`
	CPUModel   string `json:"cpu_model"`
	GoVersion  string `json:"go_version"`
	// GitCommit is the VCS revision the binary was built from, when the
	// build ran inside a git work tree ("unknown" otherwise).
	GitCommit string `json:"git_commit"`
	// SourceSHA256 digests every Go source and module file of the
	// checkout, identifying the build even without version control.
	SourceSHA256 string `json:"source_sha256"`
}

func readStamp(workload string, seed int64) stamp {
	st := stamp{
		Workload:     workload,
		Seed:         seed,
		NProc:        runtime.NumCPU(),
		GOMAXPROCS:   runtime.GOMAXPROCS(0),
		MemTotalMB:   procField("/proc/meminfo", "MemTotal") / 1024,
		CPUModel:     procText("/proc/cpuinfo", "model name"),
		GoVersion:    runtime.Version(),
		GitCommit:    "unknown",
		SourceSHA256: sourceDigest("."),
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				st.GitCommit = s.Value
			case "vcs.modified":
				if s.Value == "true" {
					st.GitCommit += "+modified"
				}
			}
		}
	}
	return st
}

// procText returns the value of the first "key : value" line of a /proc
// file, or "unknown".
func procText(path, key string) string {
	f, err := os.Open(path)
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		k, v, ok := strings.Cut(sc.Text(), ":")
		if ok && strings.TrimSpace(k) == key {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// procField parses the leading integer of a /proc "key: N unit" line
// (0 when absent).
func procField(path, key string) int64 {
	fields := strings.Fields(procText(path, key))
	if len(fields) == 0 {
		return 0
	}
	n, _ := strconv.ParseInt(fields[0], 10, 64)
	return n
}

// sourceDigest hashes the paths and contents of every .go, go.mod and
// go.sum file under root, skipping hidden directories (build output
// included), in lexical order.
func sourceDigest(root string) string {
	var files []string
	_ = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() {
			if path != root && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		name := d.Name()
		if strings.HasSuffix(name, ".go") || name == "go.mod" || name == "go.sum" {
			files = append(files, path)
		}
		return nil
	})
	sort.Strings(files)
	h := sha256.New()
	for _, p := range files {
		f, err := os.Open(p)
		if err != nil {
			continue
		}
		io.WriteString(h, filepath.ToSlash(p)+"\x00")
		_, _ = io.Copy(h, f)
		f.Close()
	}
	return hex.EncodeToString(h.Sum(nil))
}
