package main

import (
	"bytes"
	"os"
	"strings"
	"testing"
)

// TestCampaignGoldens runs E4 and E5 in-process at attacksim's default
// seed (42), budget (1) and epochs (16) and requires each table byte for
// byte equal to its golden, the output of `attacksim -campaign hndl` and
// `attacksim -campaign mobile`. A change that moves a verdict regenerates
// the golden in the same diff and says which lines moved and why.
func TestCampaignGoldens(t *testing.T) {
	for _, c := range []struct {
		name string
		run  func(out *bytes.Buffer)
	}{
		{"hndl", func(out *bytes.Buffer) { runHNDL(out, 16, 1, 42) }},
		{"mobile", func(out *bytes.Buffer) { runMobile(out, 16, 1, 42) }},
	} {
		t.Run(c.name, func(t *testing.T) {
			var got bytes.Buffer
			c.run(&got)
			diffGolden(t, "testdata/"+c.name+".golden", got.String())
		})
	}
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
