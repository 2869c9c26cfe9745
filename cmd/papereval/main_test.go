package main

import (
	"bytes"
	"os"
	"strings"
	"testing"
)

// TestPaperGolden regenerates Figure 1, Table 1 and the §3.2 tables
// in-process at the default -obj (256 KiB) and requires them byte for byte
// equal to testdata/paper.golden, the output of
// `papereval -figure1 -table1 -reencrypt -renewal`. A change that moves
// one of the paper's numbers regenerates the golden in the same diff and
// says which lines moved and why.
func TestPaperGolden(t *testing.T) {
	var got bytes.Buffer
	runFigure1(&got, 256)
	runTable1(&got, 256)
	runReencrypt(&got)
	runRenewal(&got)
	diffGolden(t, "testdata/paper.golden", got.String())
}

// diffGolden fails t at the first line where got and the file at path
// differ.
func diffGolden(t *testing.T, path, got string) {
	t.Helper()
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	g, w := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(g) || i < len(w); i++ {
		var gl, wl string
		if i < len(g) {
			gl = g[i]
		}
		if i < len(w) {
			wl = w[i]
		}
		if gl != wl {
			t.Fatalf("%s: line %d differs\n got: %q\nwant: %q", path, i+1, gl, wl)
		}
	}
}
