// Package quickdrop's root benchmark regenerates paper Table 5 at the
// "quick" substrate scale and reports QuickDrop's unlearn + recover
// speed-up over Retrain-Or, which `cmd/experiments -id table5` computes
// but does not print. Every other table and figure prints all of its
// quantities: run `cmd/experiments -id <id>`. Run with:
//
//	go test -bench=. -benchmem
package quickdrop

import (
	"testing"

	"quickdrop/internal/experiments"
)

// BenchmarkTable5Relearn regenerates the unlearn+recover and relearn
// comparison on both datasets (paper Table 5).
func BenchmarkTable5Relearn(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cifar, mnist, err := experiments.Table5(experiments.Quick())
		if err != nil {
			b.Fatal(err)
		}
		if len(cifar) == 0 || len(mnist) == 0 {
			b.Fatal("missing rows")
		}
		for _, r := range cifar {
			if r.Method == "QuickDrop" {
				b.ReportMetric(r.Speedup, "quickdrop-speedup-x")
				b.ReportMetric(100*r.FinalF, "quickdrop-fset-%")
				b.ReportMetric(100*r.FinalR, "quickdrop-rset-%")
			}
		}
	}
}
