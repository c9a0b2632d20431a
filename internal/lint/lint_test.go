package lint

import (
	"go/token"
	"testing"
)

func TestByName(t *testing.T) {
	all, err := ByName("")
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != 7 {
		t.Fatalf("suite has %d analyzers, want 7", len(all))
	}

	subset, err := ByName("errcheck, poolbalance")
	if err != nil {
		t.Fatal(err)
	}
	if len(subset) != 2 || subset[0].Name != "errcheck" || subset[1].Name != "poolbalance" {
		t.Fatalf("ByName subset = %v", subset)
	}

	if _, err := ByName("nope"); err == nil {
		t.Fatal("unknown rule accepted")
	}
}

func TestDiagnosticString(t *testing.T) {
	d := Diagnostic{
		Pos:     token.Position{Filename: "a.go", Line: 3, Column: 7},
		Rule:    "errcheck",
		Message: "boom",
	}
	if got, want := d.String(), "a.go:3:7: errcheck: boom"; got != want {
		t.Errorf("String() = %q, want %q", got, want)
	}
}
