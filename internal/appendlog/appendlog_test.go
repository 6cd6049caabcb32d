package appendlog

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// openLines opens the log at path collecting every line it is shown.
func openLines(t testing.TB, path string) (*Log, []string) {
	t.Helper()
	var lines []string
	l, err := Open(path, func(b []byte) error {
		lines = append(lines, string(b))
		return nil
	})
	if err != nil {
		t.Fatalf("Open(%s): %v", path, err)
	}
	return l, lines
}

func writeFile(t testing.TB, content string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "log.jsonl")
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func readFile(t testing.TB, path string) string {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestOpenFraming is the read half of the contract: which bytes become
// lines, which are skipped, which are cut, and what Size/Lines report.
func TestOpenFraming(t *testing.T) {
	for _, tc := range []struct {
		name, content string
		lines         []string
		onDisk        string // file content after Open
	}{
		{"missing or empty file", "", nil, ""},
		{"terminated lines", "a\nb\n", []string{"a", "b"}, "a\nb\n"},
		{"blank lines are skipped, not counted, but kept", "a\n\n  \nb\n", []string{"a", "b"}, "a\n\n  \nb\n"},
		{"CRLF is trimmed", "a\r\nb\r\n", []string{"a", "b"}, "a\r\nb\r\n"},
		{"torn trailer is cut", "a\n{\"key\":\"k2\",\"resu", []string{"a"}, "a\n"},
		{"parseable trailer without newline is still cut", "a\n{\"ok\":true}", []string{"a"}, "a\n"},
		{"trailer-only file is emptied", "{\"resu", nil, ""},
		{"whitespace trailer is cut", "a\n  ", []string{"a"}, "a\n"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			path := writeFile(t, tc.content)
			l, lines := openLines(t, path)
			defer l.Close()
			if fmt.Sprint(lines) != fmt.Sprint(tc.lines) {
				t.Errorf("lines = %q, want %q", lines, tc.lines)
			}
			if got := readFile(t, path); got != tc.onDisk {
				t.Errorf("file after Open = %q, want %q", got, tc.onDisk)
			}
			if l.Lines() != len(tc.lines) || l.Size() != int64(len(tc.onDisk)) || l.Path() != path {
				t.Errorf("Lines/Size/Path = %d/%d/%s, want %d/%d/%s", l.Lines(), l.Size(), l.Path(), len(tc.lines), len(tc.onDisk), path)
			}
		})
	}
}

// TestOpenHasNoLineCap: a line past bufio.Scanner's 4 MiB ceiling loads,
// and so does the line after it.
func TestOpenHasNoLineCap(t *testing.T) {
	big := strings.Repeat("x", 5<<20)
	l, lines := openLines(t, writeFile(t, big+"\nafter\n"))
	defer l.Close()
	if len(lines) != 2 || lines[0] != big || lines[1] != "after" {
		t.Fatalf("got %d lines (first %d bytes), want the 5 MiB line and its successor", len(lines), len(lines[0]))
	}
}

// TestOpenRejectsMidFileCorruption: a newline-terminated line the
// callback refuses fails the open, names the file and the line, wraps
// the callback's error, and leaves the file untouched.
func TestOpenRejectsMidFileCorruption(t *testing.T) {
	content := "good\n\nbad\ngood\ntorn"
	path := writeFile(t, content)
	errBad := errors.New("not a record")
	_, err := Open(path, func(b []byte) error {
		if string(b) == "bad" {
			return errBad
		}
		return nil
	})
	if !errors.Is(err, errBad) {
		t.Fatalf("Open = %v, want the callback's error wrapped", err)
	}
	if want := path + ":3: corrupt line"; !strings.Contains(err.Error(), want) {
		t.Errorf("error %q does not name %q", err, want)
	}
	if got := readFile(t, path); got != content {
		t.Errorf("failed Open modified the file: %q", got)
	}
}

// TestAppendAfterTornTrailer is the bug this package exists for: the
// append that follows a crash must start on a line boundary, so a later
// open sees every intact line plus the new one.
func TestAppendAfterTornTrailer(t *testing.T) {
	path := writeFile(t, "one\ntwo\n{\"tor")
	l, _ := openLines(t, path)
	if err := l.Append([]byte("three"), false); err != nil {
		t.Fatalf("Append: %v", err)
	}
	if l.Lines() != 3 || l.Size() != int64(len("one\ntwo\nthree\n")) {
		t.Errorf("Lines/Size = %d/%d after append", l.Lines(), l.Size())
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	l, lines := openLines(t, path)
	defer l.Close()
	if fmt.Sprint(lines) != "[one two three]" {
		t.Fatalf("reopened lines = %q", lines)
	}
}

func TestAppendSyncAndClose(t *testing.T) {
	path := filepath.Join(t.TempDir(), "new.jsonl")
	l, _ := openLines(t, path)
	for _, sync := range []bool{false, true} {
		if err := l.Append([]byte("x"), sync); err != nil {
			t.Fatalf("Append(sync=%v): %v", sync, err)
		}
	}
	if err := l.Sync(); err != nil {
		t.Fatalf("Sync: %v", err)
	}
	if err := l.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if err := l.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	if err := l.Append([]byte("y"), false); err == nil || !strings.Contains(err.Error(), "closed") {
		t.Errorf("Append after Close = %v, want a closed error", err)
	}
	if err := l.Sync(); err == nil {
		t.Error("Sync after Close succeeded")
	}
	if l.Lines() != 2 || l.Size() != 4 || readFile(t, path) != "x\nx\n" {
		t.Errorf("after close: Lines/Size = %d/%d, file %q", l.Lines(), l.Size(), readFile(t, path))
	}
}

// FuzzOpen feeds arbitrary bytes as the file. Open must either refuse
// them or accept n lines and leave the file on a line boundary, such
// that one append and a reopen yield those n lines plus the new one,
// last.
func FuzzOpen(f *testing.F) {
	// The crash artefacts worth starting from are committed under
	// testdata/fuzz/FuzzOpen; these cover the trivial files.
	for _, seed := range []string{"", "\n", "a\nb\n"} {
		f.Add([]byte(seed))
	}
	appended := []byte(`{"fuzz":"appended"}`)
	f.Fuzz(func(t *testing.T, content []byte) {
		path := filepath.Join(t.TempDir(), "fuzz.jsonl")
		if err := os.WriteFile(path, content, 0o644); err != nil {
			t.Fatal(err)
		}
		// The callback rejects one marker so the failure path is fuzzed too.
		var lines [][]byte
		collect := func(b []byte) error {
			if bytes.Contains(b, []byte("REJECT")) {
				return errors.New("rejected")
			}
			lines = append(lines, bytes.Clone(b))
			return nil
		}
		l, err := Open(path, collect)
		if err != nil {
			if after := readFile(t, path); after != string(content) {
				t.Fatalf("failed Open modified the file: %q -> %q", content, after)
			}
			return
		}
		before := lines
		disk := readFile(t, path)
		if len(disk) > 0 && disk[len(disk)-1] != '\n' {
			t.Fatalf("file does not end on a line boundary after Open: %q", disk)
		}
		if !strings.HasPrefix(string(content), disk) || strings.Contains(string(content[len(disk):]), "\n") {
			t.Fatalf("Open cut more than an unterminated trailer: %q -> %q", content, disk)
		}
		if l.Lines() != len(before) || l.Size() != int64(len(disk)) {
			t.Fatalf("Lines/Size = %d/%d, want %d/%d", l.Lines(), l.Size(), len(before), len(disk))
		}
		if err := l.Append(appended, false); err != nil {
			t.Fatalf("Append: %v", err)
		}
		if err := l.Close(); err != nil {
			t.Fatalf("Close: %v", err)
		}
		lines = nil
		l, err = Open(path, collect)
		if err != nil {
			t.Fatalf("reopen after append: %v", err)
		}
		defer l.Close()
		if len(lines) != len(before)+1 || !bytes.Equal(lines[len(lines)-1], appended) {
			t.Fatalf("reopen saw %d lines ending %q, want %d ending %q", len(lines), lines[len(lines)-1], len(before)+1, appended)
		}
		for i := range before {
			if !bytes.Equal(lines[i], before[i]) {
				t.Fatalf("line %d changed across append+reopen: %q -> %q", i, before[i], lines[i])
			}
		}
	})
}
