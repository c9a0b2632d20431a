package lint

import (
	"go/token"
	"slices"
	"testing"
)

func TestByName(t *testing.T) {
	names := func(as []*Analyzer) []string {
		var out []string
		for _, a := range as {
			out = append(out, a.Name)
		}
		return out
	}
	all, err := ByName("")
	if err != nil {
		t.Fatal(err)
	}
	if got, want := names(all), []string{"lockorder", "wgbalance"}; !slices.Equal(got, want) {
		t.Fatalf("suite = %v, want %v", got, want)
	}

	subset, err := ByName("wgbalance, lockorder")
	if err != nil {
		t.Fatal(err)
	}
	if got, want := names(subset), []string{"wgbalance", "lockorder"}; !slices.Equal(got, want) {
		t.Fatalf("ByName subset = %v, want %v", got, want)
	}

	if _, err := ByName("nope"); err == nil {
		t.Fatal("unknown rule accepted")
	}
}

func TestDiagnosticString(t *testing.T) {
	d := Diagnostic{
		Pos:     token.Position{Filename: "a.go", Line: 3, Column: 7},
		Rule:    "wgbalance",
		Message: "boom",
	}
	if got, want := d.String(), "a.go:3:7: wgbalance: boom"; got != want {
		t.Errorf("String() = %q, want %q", got, want)
	}
}
