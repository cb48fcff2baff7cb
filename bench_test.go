// BenchmarkExperiments regenerates every table and figure of the
// paper's evaluation: one sub-benchmark per entry of internal/report's
// experiment registry, named by its id. Each times one full run of the
// experiment and, on the first iteration, logs the markdown section it
// renders next to the paper's published values (recorded in
// EXPERIMENTS.md). Run with:
//
//	go test -run - -bench BenchmarkExperiments -benchmem
//	go test -run - -bench BenchmarkExperiments/fig16   # one experiment
//
// or through cmd/msbench for the report itself.
package multiscatter_test

import (
	"strings"
	"testing"

	"multiscatter/internal/report"
)

func BenchmarkExperiments(b *testing.B) {
	for _, e := range report.Experiments {
		b.Run(e.ID, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				var sb strings.Builder
				if _, err := e.Render(&sb, report.Options{}); err != nil {
					b.Fatal(err)
				}
				logOnce(b, i, "\n%s", sb.String())
			}
		})
	}
}
