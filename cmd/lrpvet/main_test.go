package main

import (
	"path/filepath"
	"strings"
	"testing"
)

// TestVetAcrossFiles checks detection by type, not by name: the map
// field is declared in a.go and ranged in b.go (flagged), while a slice
// field of the same name is ranged beside it (not flagged).
func TestVetAcrossFiles(t *testing.T) {
	dir := filepath.Join("testdata", "maprange")
	bad, err := vet(dir)
	if err != nil {
		t.Fatal(err)
	}
	want := filepath.Join(dir, "b.go") + ":4: range over map ix.Members"
	if len(bad) != 1 || !strings.HasPrefix(bad[0], want) {
		t.Fatalf("findings %q, want exactly one starting %q", bad, want)
	}
}
