package testkit

import (
	"bytes"
	"os"
	"path/filepath"
	"sort"
	"testing"
)

// CopyDir copies the files of the directory src into a fresh temporary
// directory and returns its path, so a test can open and append to a
// committed data directory without touching it.
func CopyDir(t testing.TB, src string) string {
	t.Helper()
	dst := t.TempDir()
	entries, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		data, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dst
}

// ChangedFiles returns the sorted names of the files in dir that src does
// not hold byte for byte.
func ChangedFiles(t testing.TB, src, dir string) []string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var changed []string
	for _, e := range entries {
		got, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if want, err := os.ReadFile(filepath.Join(src, e.Name())); err != nil || !bytes.Equal(got, want) {
			changed = append(changed, e.Name())
		}
	}
	sort.Strings(changed)
	return changed
}
