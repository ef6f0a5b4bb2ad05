package server

import (
	"net"
	"os"
	"path/filepath"
	"strconv"
	"testing"
	"time"
)

func TestLoadMaxTermMissingFileIsFreshBoot(t *testing.T) {
	term, found, err := LoadMaxTerm(filepath.Join(t.TempDir(), "maxterm"))
	if err != nil || found || term != 0 {
		t.Fatalf("LoadMaxTerm(missing) = %v, %v, %v; want 0, false, nil", term, found, err)
	}
}

func TestMaxTermFilePersistsMonotonically(t *testing.T) {
	path := filepath.Join(t.TempDir(), "maxterm")

	if err := raiseMaxTerm(path, 5*time.Second); err != nil {
		t.Fatal(err)
	}
	term, found, err := LoadMaxTerm(path)
	if err != nil || !found || term != 5*time.Second {
		t.Fatalf("after raising to 5s: %v, %v, %v", term, found, err)
	}

	// A smaller term must not regress the persisted maximum — the
	// recovery window must cover the longest lease ever granted.
	if err := raiseMaxTerm(path, 3*time.Second); err != nil {
		t.Fatal(err)
	}
	if term, _, _ = LoadMaxTerm(path); term != 5*time.Second {
		t.Fatalf("raising to 3s regressed the maximum to %v", term)
	}

	if err := raiseMaxTerm(path, 8*time.Second); err != nil {
		t.Fatal(err)
	}
	if term, _, _ = LoadMaxTerm(path); term != 8*time.Second {
		t.Fatalf("raising to 8s not persisted: %v", term)
	}
}

func TestMaxTermFileLeavesNoTempDebris(t *testing.T) {
	dir := t.TempDir()
	for i := 1; i <= 5; i++ {
		if err := raiseMaxTerm(filepath.Join(dir, "maxterm"), time.Duration(i)*time.Second); err != nil {
			t.Fatal(err)
		}
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || entries[0].Name() != "maxterm" {
		names := make([]string, len(entries))
		for i, e := range entries {
			names[i] = e.Name()
		}
		t.Fatalf("temp debris after atomic updates: %v", names)
	}
}

func TestLoadMaxTermCorruptFileErrors(t *testing.T) {
	// Every way a crash or operator mishap can mangle the file: a torn
	// write leaving nothing or NUL-padded digits, stray text, a negative
	// value, a flipped high bit overflowing int64, and a plausible-looking
	// wall-clock timestamp (~56 years in nanoseconds) that would park the
	// server in its recovery window for decades if honored.
	cases := map[string][]byte{
		"zero-length":      {},
		"whitespace-only":  []byte("  \n\t\n"),
		"garbage":          []byte("not a number\n"),
		"partial-write":    []byte("25000000\x00\x00\x00\x00"),
		"negative":         []byte("-5000000000\n"),
		"overflow":         []byte("99999999999999999999999999\n"),
		"future-timestamp": []byte("1790000000000000000\n"),
	}
	for name, content := range cases {
		t.Run(name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "maxterm")
			if err := os.WriteFile(path, content, 0o644); err != nil {
				t.Fatal(err)
			}
			term, found, err := LoadMaxTerm(path)
			if err == nil {
				t.Fatalf("corrupt max-term file %q loaded as %v (found=%v)", content, term, found)
			}
		})
	}
}

func TestLoadMaxTermAcceptsCapBoundary(t *testing.T) {
	path := filepath.Join(t.TempDir(), "maxterm")
	if err := os.WriteFile(path, []byte(strconv.FormatInt(int64(MaxDurableTerm), 10)+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	term, found, err := LoadMaxTerm(path)
	if err != nil || !found || term != MaxDurableTerm {
		t.Fatalf("LoadMaxTerm(cap) = %v, %v, %v; want %v, true, nil", term, found, err, MaxDurableTerm)
	}
	if err := os.WriteFile(path, []byte(strconv.FormatInt(int64(MaxDurableTerm)+1, 10)+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := LoadMaxTerm(path); err == nil {
		t.Fatal("cap+1ns loaded without error")
	}
}

func TestMaxTermFileRefusesUncappedTerm(t *testing.T) {
	path := filepath.Join(t.TempDir(), "maxterm")
	if err := raiseMaxTerm(path, MaxDurableTerm+time.Second); err == nil {
		t.Fatal("raising beyond MaxDurableTerm succeeded; such a file could never be loaded back")
	}
	// The refusal must leave no file behind: a fresh boot, not corruption.
	if _, found, err := LoadMaxTerm(path); err != nil || found {
		t.Fatalf("after refused update: found=%v err=%v; want a missing file", found, err)
	}
	// And the cap itself must still be grantable.
	if err := raiseMaxTerm(path, MaxDurableTerm); err != nil {
		t.Fatalf("raising to the cap: %v", err)
	}
	if term, _, err := LoadMaxTerm(path); err != nil || term != MaxDurableTerm {
		t.Fatalf("after raising to the cap: %v, %v", term, err)
	}
}

func TestServeReportsCorruptMaxTermFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "maxterm")
	if err := os.WriteFile(path, []byte("garbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	s := New(Config{Term: time.Second, MaxTermPath: path})
	if err := s.ListenAndServe("127.0.0.1:0"); err == nil {
		t.Fatal("Serve with corrupt max-term file returned nil; serving with an unknown recovery window risks a stale read")
	}
}

// TestServeRefusesCeilingPastDurableCap: a server whose longest grant
// (4 × Term) could not be loaded back after a restart does not serve,
// and leaves no file behind.
func TestServeRefusesCeilingPastDurableCap(t *testing.T) {
	path := filepath.Join(t.TempDir(), "maxterm")
	s := New(Config{Term: MaxDurableTerm, MaxTermPath: path})
	if err := s.ListenAndServe("127.0.0.1:0"); err == nil {
		t.Fatal("Serve with a term ceiling past MaxDurableTerm returned nil")
	}
	if _, found, err := LoadMaxTerm(path); err != nil || found {
		t.Fatalf("after the refusal: found=%v err=%v; want a missing file", found, err)
	}
}

// TestServeAfterStopWritesNothing: a Serve that begins after Stop returns
// nil and leaves no max-term file behind, so whoever stopped the server
// may remove the file's directory at once.
func TestServeAfterStopWritesNothing(t *testing.T) {
	path := filepath.Join(t.TempDir(), "maxterm")
	s := New(Config{Term: time.Second, MaxTermPath: path})
	s.Stop()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Serve(ln); err != nil {
		t.Fatalf("Serve after Stop: %v", err)
	}
	if _, found, err := LoadMaxTerm(path); err != nil || found {
		t.Fatalf("after Stop then Serve: found=%v err=%v; want no max-term file", found, err)
	}
}
