package storage

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// fsStep is one FS call of a parity script: op on path a (and b, which is
// Rename's destination and WriteFile's data), both relative to the root.
type fsStep struct{ op, a, b string }

// run makes the call and returns what it let a caller see besides its
// error: ReadFile's data, and ReadDir's entries with each one's name,
// whether it is a directory, and a file's size (a directory's size is the
// filesystem's own business).
func (s fsStep) run(fsys FS, root string) (string, error) {
	a := filepath.Join(root, s.a)
	switch s.op {
	case "MkdirAll":
		return "", fsys.MkdirAll(a, 0o755)
	case "WriteFile":
		return "", fsys.WriteFile(a, []byte(s.b), 0o644)
	case "Rename":
		return "", fsys.Rename(a, filepath.Join(root, s.b))
	case "Remove":
		return "", fsys.Remove(a)
	case "RemoveAll":
		return "", fsys.RemoveAll(a)
	case "ReadFile":
		data, err := fsys.ReadFile(a)
		return string(data), err
	case "SyncFile":
		return "", fsys.SyncFile(a)
	case "SyncDir":
		return "", fsys.SyncDir(a)
	case "ReadDir":
	default:
		panic("unknown FS op " + s.op)
	}
	entries, err := fsys.ReadDir(a)
	var out []string
	for _, e := range entries {
		if e.IsDir() {
			out = append(out, e.Name()+"/")
			continue
		}
		info, err := e.Info()
		if err != nil {
			return "", err
		}
		out = append(out, fmt.Sprintf("%s:%d", e.Name(), info.Size()))
	}
	return strings.Join(out, " "), err
}

// errClass buckets an error the way FSStore branches on it.
func errClass(err error) string {
	switch {
	case err == nil:
		return "nil"
	case os.IsNotExist(err):
		return "not-exist"
	}
	return "other"
}

// TestMemFSMatchesOSFS runs one table of FS scripts on the real filesystem
// and on MemFS, and requires the same outcome at every step: the same error
// class and the same visible result.
func TestMemFSMatchesOSFS(t *testing.T) {
	scripts := []struct {
		name  string
		steps []fsStep
	}{
		{"nested mkdir", []fsStep{
			{"MkdirAll", "a/b/c", ""}, {"ReadDir", "a", ""}, {"ReadDir", "a/b", ""}, {"MkdirAll", "a/b/c", ""},
			{"ReadDir", "a/b/c", ""}, {"WriteFile", "a/f", "x"}, {"MkdirAll", "a/f", ""}, {"MkdirAll", "a/f/g", ""},
		}},
		{"write into a missing directory", []fsStep{
			{"WriteFile", "nope/x", "1"}, {"ReadDir", "", ""}, {"MkdirAll", "d", ""}, {"WriteFile", "d/x", "1"},
			{"ReadFile", "d/x", ""}, {"WriteFile", "d", "1"},
		}},
		{"rename over an existing file", []fsStep{
			{"MkdirAll", "d", ""}, {"WriteFile", "d/a", "old"}, {"WriteFile", "d/b", "newer"}, {"Rename", "d/b", "d/a"},
			{"ReadFile", "d/a", ""}, {"ReadFile", "d/b", ""}, {"ReadDir", "d", ""}, {"Rename", "d/zz", "d/a"},
			{"Rename", "d/a", "nope/a"},
		}},
		{"remove", []fsStep{
			{"MkdirAll", "d/e", ""}, {"WriteFile", "d/f", "x"}, {"Remove", "d/missing", ""}, {"Remove", "d", ""},
			{"Remove", "d/f", ""}, {"Remove", "d/e", ""}, {"Remove", "d", ""}, {"ReadDir", "d", ""}, {"ReadDir", "", ""},
		}},
		{"remove all of a subtree", []fsStep{
			{"MkdirAll", "t/u/v", ""}, {"WriteFile", "t/u/f", "x"}, {"WriteFile", "t/g", "y"}, {"WriteFile", "t/uu", "z"},
			{"RemoveAll", "t/u", ""}, {"ReadDir", "t", ""}, {"ReadFile", "t/u/f", ""}, {"ReadDir", "t/u/v", ""},
			{"RemoveAll", "t/missing", ""}, {"RemoveAll", "t", ""}, {"ReadDir", "t", ""}, {"ReadDir", "", ""},
		}},
		{"read dir in name order", []fsStep{
			{"MkdirAll", "r/b", ""}, {"WriteFile", "r/c", "ccc"}, {"WriteFile", "r/a", "a"}, {"WriteFile", "r/B", "BB"},
			{"WriteFile", "r/b/x", "1234"}, {"ReadDir", "r", ""}, {"ReadDir", "r/b", ""}, {"ReadDir", "r/c", ""},
			{"ReadDir", "r/missing", ""},
		}},
		{"read a directory as a file", []fsStep{
			{"MkdirAll", "x", ""}, {"ReadFile", "x", ""}, {"ReadFile", "missing", ""},
		}},
		{"sync missing paths", []fsStep{
			{"SyncFile", "nope", ""}, {"SyncDir", "nope", ""}, {"MkdirAll", "s", ""}, {"WriteFile", "s/f", "1"},
			{"SyncFile", "s/f", ""}, {"SyncDir", "s", ""}, {"SyncFile", "s/g", ""}, {"SyncDir", "s/sub", ""},
		}},
	}
	for _, sc := range scripts {
		t.Run(sc.name, func(t *testing.T) {
			root := t.TempDir()
			fsyss := []FS{OSFS{}, NewMemFS()}
			for _, fsys := range fsyss {
				if err := fsys.MkdirAll(root, 0o755); err != nil {
					t.Fatal(err)
				}
			}
			for i, step := range sc.steps {
				osOut, osErr := step.run(fsyss[0], root)
				memOut, memErr := step.run(fsyss[1], root)
				if errClass(osErr) != errClass(memErr) || osOut != memOut {
					t.Fatalf("step %d %v: OSFS gave %q, %v; MemFS gave %q, %v", i, step, osOut, osErr, memOut, memErr)
				}
			}
		})
	}
}
