package server

import (
	"encoding/json"
	"io/fs"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// corruptAllEntries bit-flips the tail of every stored entry under dir.
func corruptAllEntries(t *testing.T, dir string) {
	t.Helper()
	n := 0
	err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, ".pcr") {
			return err
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		data[len(data)-1] ^= 0xff
		n++
		return os.WriteFile(path, data, 0o644)
	})
	if err != nil {
		t.Fatal(err)
	}
	if n == 0 {
		t.Fatal("no disk entries to corrupt")
	}
}

// TestDiskCacheWarmRestart is the daemon-level persistence contract: a
// server restarted over the same disk directory turns cold memory misses
// into disk hits, and the served payloads are identical.
func TestDiskCacheWarmRestart(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{MaxInFlight: 1, DiskCacheDir: dir}

	// First life: compile, then drain (Close flushes the write-behind).
	s1, ts1 := newTestServer(t, cfg)
	resp, body1 := postJSON(t, ts1.URL+"/v1/compile", CompileRequest{MIR: kernelMIR, Method: "bpc", EmitMIR: true})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("first compile: status %d: %s", resp.StatusCode, body1)
	}
	st := s1.Statz()
	if st.Disk == nil {
		t.Fatal("statz has no disk section despite DiskCacheDir")
	}
	if st.Cache.DiskMisses != 1 || st.Cache.DiskHits != 0 {
		t.Fatalf("first life attribution: %+v", st.Cache)
	}
	s1.Close()

	// Second life: same dir, fresh memory. The compile must be a memory
	// miss AND a disk hit, and answer the same payload.
	s2, ts2 := newTestServer(t, cfg)
	resp, body2 := postJSON(t, ts2.URL+"/v1/compile", CompileRequest{MIR: kernelMIR, Method: "bpc", EmitMIR: true})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("restart compile: status %d: %s", resp.StatusCode, body2)
	}
	var r1, r2 CompileResponse
	if err := json.Unmarshal(body1, &r1); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(body2, &r2); err != nil {
		t.Fatal(err)
	}
	j1, _ := json.Marshal(r1.FuncResponse)
	j2, _ := json.Marshal(r2.FuncResponse)
	if string(j1) != string(j2) {
		t.Fatalf("disk-served response diverged:\nfirst:   %s\nrestart: %s", j1, j2)
	}
	st = s2.Statz()
	if st.Cache.FullHits != 0 || st.Cache.FullMisses != 1 {
		t.Fatalf("restart memory attribution: %+v", st.Cache)
	}
	if st.Cache.DiskHits != 1 || st.Cache.DiskMisses != 0 {
		t.Fatalf("restart disk attribution: %+v", st.Cache)
	}
	if st.Disk == nil || st.Disk.Hits != 1 || st.Disk.Entries == 0 {
		t.Fatalf("restart disk section: %+v", st.Disk)
	}

	// A repeat on the live server is a pure memory hit: the disk counters
	// must not move — the levels are attributed distinctly.
	resp, _ = postJSON(t, ts2.URL+"/v1/compile", CompileRequest{MIR: kernelMIR, Method: "bpc", EmitMIR: true})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("repeat: status %d", resp.StatusCode)
	}
	st = s2.Statz()
	if st.Cache.FullHits != 1 || st.Cache.DiskHits != 1 || st.Cache.DiskMisses != 0 {
		t.Fatalf("memory-hit attribution leaked into disk: %+v", st.Cache)
	}
	s2.Close()
}

// TestStatzDiskSectionAbsentWithoutDir pins that memory-only servers keep
// the old statz shape (no disk section, zeroed disk counters).
func TestStatzDiskSectionAbsentWithoutDir(t *testing.T) {
	s, ts := newTestServer(t, Config{MaxInFlight: 1})
	resp, _ := postJSON(t, ts.URL+"/v1/compile", CompileRequest{MIR: kernelMIR})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	st := s.Statz()
	if st.Disk != nil {
		t.Fatalf("disk section present without DiskCacheDir: %+v", st.Disk)
	}
	if st.Cache.DiskHits != 0 || st.Cache.DiskMisses != 0 {
		t.Fatalf("disk counters moved without a disk cache: %+v", st.Cache)
	}
}

// TestDiskCacheCorruptEntryServes pins the no-5xx corruption contract at
// the HTTP layer: a corrupted disk entry is quarantined and the request
// recompiles, answering 200.
func TestDiskCacheCorruptEntryServes(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{MaxInFlight: 1, DiskCacheDir: dir}
	s1, ts1 := newTestServer(t, cfg)
	if resp, _ := postJSON(t, ts1.URL+"/v1/compile", CompileRequest{MIR: kernelMIR}); resp.StatusCode != http.StatusOK {
		t.Fatalf("seed compile failed: %d", resp.StatusCode)
	}
	s1.Close()

	corruptAllEntries(t, dir)

	s2, ts2 := newTestServer(t, cfg)
	defer s2.Close()
	resp, body := postJSON(t, ts2.URL+"/v1/compile", CompileRequest{MIR: kernelMIR})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("corrupt disk entry surfaced as %d: %s", resp.StatusCode, body)
	}
	st := s2.Statz()
	if st.Disk.Corrupt == 0 {
		t.Fatalf("corruption not detected: %+v", st.Disk)
	}
	if st.Cache.DiskHits != 0 {
		t.Fatalf("corrupt entry counted as a disk hit: %+v", st.Cache)
	}
}
