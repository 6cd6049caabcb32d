// Package appendlog owns the crash contract of a newline-framed,
// append-only file — the one on-disk shape under the campaign result
// store and the fleet journal:
//
//   - Every append is one write(2) of the line and its newline straight
//     to the fd, so a killed process loses at most the line in flight.
//   - A line without its newline is therefore a write cut short by a
//     crash, never an acknowledged record. Open cuts such a trailer off
//     the file — whether or not the fragment happens to parse — so the
//     next append starts on a line boundary instead of fusing with it.
//   - A newline-terminated line the caller cannot parse is not a crash
//     artefact: something rewrote the file. Open fails loudly, naming
//     the path and line, rather than silently dropping data.
//   - Rewrite replaces the whole file through a temp file, an fsync and
//     an atomic rename, so a crash mid-rewrite leaves the old file or
//     the new one, never a mix.
//
// What a line means (a record, a profile, a journal transition) and
// when an append is worth an fsync stay with the caller.
package appendlog

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
)

// Log is the append handle of one file. It is not self-locking: every
// caller already holds the lock that guards the state its lines rebuild
// (a cache map, the coordinator), and that lock is what orders appends.
type Log struct {
	f     *os.File // nil once closed
	path  string
	size  int64
	lines int
}

// Open opens (creating if needed) the log at path and calls line, in
// file order, with every non-blank newline-terminated line, trimmed of
// surrounding whitespace. Lines have no length cap. An error from line
// fails the open; an unterminated trailer is truncated away unseen.
func Open(path string, line func([]byte) error) (*Log, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	l := &Log{f: f, path: path}
	// ReadBytes, not a Scanner: a Scanner's buffer limit would make one
	// oversized record fail the whole open, losing resume.
	br := bufio.NewReader(f)
	for n := 1; ; n++ {
		b, rerr := br.ReadBytes('\n')
		if rerr == nil {
			l.size += int64(len(b))
			if b = bytes.TrimSpace(b); len(b) > 0 {
				if err := line(b); err != nil {
					f.Close()
					return nil, fmt.Errorf("%s:%d: corrupt line: %w", path, n, err)
				}
				l.lines++
			}
			continue
		}
		if !errors.Is(rerr, io.EOF) {
			f.Close()
			return nil, fmt.Errorf("read %s: %w", path, rerr)
		}
		if len(b) > 0 {
			if err := f.Truncate(l.size); err != nil {
				f.Close()
				return nil, fmt.Errorf("truncate torn trailer of %s: %w", path, err)
			}
		}
		return l, nil
	}
}

// Path returns the file path.
func (l *Log) Path() string { return l.path }

// Size is the file size in bytes, tracked across the open's truncation,
// appends and rewrites. It survives Close.
func (l *Log) Size() int64 { return l.size }

// Lines is the number of non-blank lines in the file, tracked likewise.
func (l *Log) Lines() int { return l.lines }

// Append writes b (which must not contain a newline — no JSON encoding
// does) and its terminator in one write, then fsyncs when sync is set.
func (l *Log) Append(b []byte, sync bool) error {
	if l.f == nil {
		return fmt.Errorf("%s is closed", l.path)
	}
	n, err := l.f.Write(append(b, '\n'))
	l.size += int64(n)
	if err != nil {
		return err
	}
	l.lines++
	if sync {
		return l.f.Sync()
	}
	return nil
}

// Rewrite atomically replaces the file with the n lines line(0..n-1)
// and moves the append handle onto the new file. The replacement is
// fsync'd before the rename — otherwise the rename can reach the disk
// before the data, and a crash leaves an empty or truncated file under
// path. On any failure the temp file is removed and the old file and
// handle stay exactly as they were.
func (l *Log) Rewrite(n int, line func(i int) ([]byte, error)) error {
	if l.f == nil {
		return fmt.Errorf("%s is closed", l.path)
	}
	tmp := l.path + ".tmp"
	// O_APPEND from the start: after the rename this fd *is* the log, so
	// there is no reopen that could fail with the new file already in
	// place.
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_RDWR|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	var size int64
	bw := bufio.NewWriter(f)
	for i := 0; i < n && err == nil; i++ {
		var b []byte
		if b, err = line(i); err == nil {
			bw.Write(b)
			err = bw.WriteByte('\n')
			size += int64(len(b)) + 1
		}
	}
	if err == nil {
		err = bw.Flush()
	}
	if err == nil {
		err = f.Sync()
	}
	if err == nil {
		err = os.Rename(tmp, l.path)
	}
	if err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	l.f.Close()
	l.f, l.size, l.lines = f, size, n
	return nil
}

// Sync flushes the file to stable storage.
func (l *Log) Sync() error { return l.f.Sync() }

// Close releases the file. Idempotent; appends after it fail.
func (l *Log) Close() error {
	if l.f == nil {
		return nil
	}
	err := l.f.Close()
	l.f = nil
	return err
}
