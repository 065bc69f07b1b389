package main

import (
	"crypto/sha256"
	"encoding/hex"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"strings"
)

// provenance identifies the machine, toolchain and code a result came
// from. Commit is read from the checkout's .git when there is one;
// Tree is a digest of the Go sources and module files, so two results
// from the same code carry the same Tree even outside git.
type provenance struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Go         string `json:"go"`
	CPU        string `json:"cpu"`
	Seed       int64  `json:"seed"`
	Commit     string `json:"commit"`
	Tree       string `json:"tree"`
}

func collectProvenance(cfg config) provenance {
	return provenance{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Go:         runtime.Version(),
		CPU:        cpuModel(),
		Seed:       cfg.seed,
		Commit:     gitCommit(cfg.root),
		Tree:       treeDigest(cfg.root),
	}
}

// cpuModel is the first "model name" in /proc/cpuinfo.
func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// gitCommit resolves HEAD from root/.git without running git: a
// detached hash, a loose ref, or a packed ref.
func gitCommit(root string) string {
	dir := filepath.Join(root, ".git")
	head, err := os.ReadFile(filepath.Join(dir, "HEAD"))
	if err != nil {
		return "unknown"
	}
	ref, ok := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !ok {
		return strings.TrimSpace(string(head))
	}
	if b, err := os.ReadFile(filepath.Join(dir, filepath.FromSlash(ref))); err == nil {
		return strings.TrimSpace(string(b))
	}
	if b, err := os.ReadFile(filepath.Join(dir, "packed-refs")); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if hash, name, ok := strings.Cut(line, " "); ok && name == ref {
				return hash
			}
		}
	}
	return "unknown"
}

// treeDigest hashes every .go, go.mod and golden file under root in
// lexical order, skipping hidden and build directories.
func treeDigest(root string) string {
	h := sha256.New()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := d.Name()
		if d.IsDir() {
			if path != root && strings.HasPrefix(name, ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(name, ".go") && name != "go.mod" && !strings.HasSuffix(name, ".golden") {
			return nil
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(root, path)
		if err != nil {
			return err
		}
		h.Write([]byte(filepath.ToSlash(rel)))
		h.Write([]byte{0})
		h.Write(b)
		return nil
	})
	if err != nil {
		return "unknown"
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}
