package server

import (
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"
)

// Durable max-term recovery (§2): "the server need only remember the
// maximum term for which it has granted a lease … after a crash it
// delays writes to all files for that period." Every term a server can
// grant is fixed by its configuration (srvcore.Config.Ceiling), so Serve
// writes that ceiling once, before its first accept, and no grant
// touches the disk. The file holds one decimal integer — a term in
// nanoseconds — and is replaced atomically (temp file, fsync, rename,
// directory fsync), so a crash at any instant leaves either the old
// value or the new one, never a torn write.

// MaxDurableTerm bounds what a max-term file may claim. No sane
// configuration grants year-long leases, so a larger value is corruption
// (a wall-clock timestamp written where a duration belongs, a flipped
// bit in the high digits), and honoring it would park the server in its
// recovery window for decades. Refusing to load it forces the operator
// to inspect the file instead.
const MaxDurableTerm = 365 * 24 * time.Hour

// LoadMaxTerm reads a durable max-term file written by a server with
// Config.MaxTermPath set. It returns the persisted term and whether the
// file existed; a missing file is a fresh boot, not an error. Anything
// unparseable, negative, or beyond MaxDurableTerm is reported as
// corrupt: the recovery window must come from evidence, not garbage.
func LoadMaxTerm(path string) (time.Duration, bool, error) {
	b, err := os.ReadFile(path)
	if errors.Is(err, fs.ErrNotExist) {
		return 0, false, nil
	}
	if err != nil {
		return 0, false, err
	}
	s := strings.TrimSpace(string(b))
	n, perr := strconv.ParseInt(s, 10, 64)
	if perr != nil || n < 0 || time.Duration(n) > MaxDurableTerm {
		return 0, false, fmt.Errorf("server: corrupt max-term file %s: %q", path, s)
	}
	return time.Duration(n), true, nil
}

// raiseMaxTerm makes the file at path hold at least t: a larger value
// already there stays, and a missing file is created. The write is
// atomic and fsync'd; a term past MaxDurableTerm is refused, since the
// restart it is meant to protect could not load it back.
func raiseMaxTerm(path string, t time.Duration) error {
	old, _, err := LoadMaxTerm(path)
	if err != nil || old >= t {
		return err
	}
	if t > MaxDurableTerm {
		return fmt.Errorf("server: max term %v exceeds durable cap %v", t, MaxDurableTerm)
	}
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, ".maxterm-*")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name()) // no-op after a successful rename
	if _, err := tmp.WriteString(strconv.FormatInt(int64(t), 10) + "\n"); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		return err
	}
	// Make the rename itself durable.
	if d, err := os.Open(dir); err == nil {
		d.Sync()
		d.Close()
	}
	return nil
}
