// Package stats provides the measurement plumbing for multiscatter
// experiments: confusion matrices for identification accuracy, labelled
// data series for the regenerated figures, and their markdown tables,
// which the experiment registry (internal/report) renders.
package stats

import (
	"fmt"
	"sort"
	"strings"

	"multiscatter/internal/radio"
)

// Confusion is an identification confusion matrix: Counts[truth][decided].
type Confusion struct {
	// Counts maps true protocol → decided protocol → count.
	Counts map[radio.Protocol]map[radio.Protocol]int
}

// NewConfusion returns an empty matrix.
func NewConfusion() *Confusion {
	return &Confusion{Counts: map[radio.Protocol]map[radio.Protocol]int{}}
}

// Add records one trial.
func (c *Confusion) Add(truth, decided radio.Protocol) {
	row := c.Counts[truth]
	if row == nil {
		row = map[radio.Protocol]int{}
		c.Counts[truth] = row
	}
	row[decided]++
}

// Accuracy returns the per-protocol identification accuracy, or 0 when
// the protocol has no trials.
func (c *Confusion) Accuracy(p radio.Protocol) float64 {
	row := c.Counts[p]
	total := 0
	for _, n := range row {
		total += n
	}
	if total == 0 {
		return 0
	}
	return float64(row[p]) / float64(total)
}

// Average returns the mean accuracy over the four protocols — the
// paper's headline identification metric.
func (c *Confusion) Average() float64 {
	var sum float64
	n := 0
	for _, p := range radio.Protocols {
		if len(c.Counts[p]) == 0 {
			continue
		}
		sum += c.Accuracy(p)
		n++
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// Total returns the number of recorded trials.
func (c *Confusion) Total() int {
	total := 0
	for _, row := range c.Counts {
		for _, n := range row {
			total += n
		}
	}
	return total
}

// String renders the matrix as a markdown table, one row per true
// protocol with its accuracy, followed by the average accuracy.
func (c *Confusion) String() string {
	var b strings.Builder
	cols := append(append([]radio.Protocol{}, radio.Protocols...), radio.ProtocolUnknown)
	b.WriteString("| truth \\ decided |")
	for _, p := range cols {
		fmt.Fprintf(&b, " %v |", p)
	}
	b.WriteString(" accuracy |\n|---|" + strings.Repeat("---|", len(cols)+1) + "\n")
	for _, truth := range radio.Protocols {
		fmt.Fprintf(&b, "| %v |", truth)
		for _, dec := range cols {
			fmt.Fprintf(&b, " %d |", c.Counts[truth][dec])
		}
		fmt.Fprintf(&b, " %.3f |\n", c.Accuracy(truth))
	}
	fmt.Fprintf(&b, "\naverage accuracy: %.3f (n=%d)\n", c.Average(), c.Total())
	return b.String()
}

// Point is one (x, y) sample of a series.
type Point struct {
	X float64
	Y float64
}

// Series is a labelled curve of an experiment figure.
type Series struct {
	// Name of the curve (e.g. "BLE", "Hitchhike").
	Name string
	// Unit of the Y axis (e.g. "kbps", "dBm").
	Unit string
	// Points in X order.
	Points []Point
}

// Add appends a point.
func (s *Series) Add(x, y float64) {
	s.Points = append(s.Points, Point{X: x, Y: y})
}

// YAt returns the Y value at the given X, or 0 if absent.
func (s *Series) YAt(x float64) (float64, bool) {
	for _, p := range s.Points {
		if p.X == x {
			return p.Y, true
		}
	}
	return 0, false
}

// MaxY returns the largest Y value, or 0 for an empty series.
func (s *Series) MaxY() float64 {
	var best float64
	for i, p := range s.Points {
		if i == 0 || p.Y > best {
			best = p.Y
		}
	}
	return best
}

// LastXAbove returns the largest X whose Y is at least threshold — the
// "maximum range" reading used for Figures 13 and 14.
func (s *Series) LastXAbove(threshold float64) float64 {
	var best float64
	for _, p := range s.Points {
		if p.Y >= threshold && p.X > best {
			best = p.X
		}
	}
	return best
}

// Table renders one or more series sharing an X axis as a markdown
// table with the given X-axis label. Values print with four significant
// digits; a series without a sample at some X shows "-" there.
func Table(xLabel string, series ...*Series) string {
	xs := map[float64]bool{}
	for _, s := range series {
		for _, p := range s.Points {
			xs[p.X] = true
		}
	}
	sorted := make([]float64, 0, len(xs))
	for x := range xs {
		sorted = append(sorted, x)
	}
	sort.Float64s(sorted)

	var b strings.Builder
	fmt.Fprintf(&b, "| %s |", xLabel)
	for _, s := range series {
		name := s.Name
		if s.Unit != "" {
			name += " (" + s.Unit + ")"
		}
		fmt.Fprintf(&b, " %s |", name)
	}
	b.WriteString("\n|---|" + strings.Repeat("---|", len(series)) + "\n")
	for _, x := range sorted {
		fmt.Fprintf(&b, "| %.4g |", x)
		for _, s := range series {
			if y, ok := s.YAt(x); ok {
				fmt.Fprintf(&b, " %.4g |", y)
			} else {
				b.WriteString(" - |")
			}
		}
		b.WriteByte('\n')
	}
	return b.String()
}
