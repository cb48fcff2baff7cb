package stats

import (
	"strings"
	"testing"

	"multiscatter/internal/radio"
)

func TestConfusionAccuracy(t *testing.T) {
	c := NewConfusion()
	for i := 0; i < 9; i++ {
		c.Add(radio.ProtocolBLE, radio.ProtocolBLE)
	}
	c.Add(radio.ProtocolBLE, radio.ProtocolZigBee)
	if got := c.Accuracy(radio.ProtocolBLE); got != 0.9 {
		t.Fatalf("accuracy = %v", got)
	}
	if got := c.Accuracy(radio.Protocol80211n); got != 0 {
		t.Fatalf("empty-row accuracy = %v", got)
	}
	if c.Total() != 10 {
		t.Fatalf("total = %d", c.Total())
	}
}

func TestConfusionAverage(t *testing.T) {
	c := NewConfusion()
	if c.Average() != 0 {
		t.Fatal("empty average should be 0")
	}
	// Two protocols: one perfect, one 50%.
	c.Add(radio.ProtocolBLE, radio.ProtocolBLE)
	c.Add(radio.ProtocolZigBee, radio.ProtocolZigBee)
	c.Add(radio.ProtocolZigBee, radio.ProtocolUnknown)
	if got := c.Average(); got != 0.75 {
		t.Fatalf("average = %v, want 0.75", got)
	}
}

func TestConfusionString(t *testing.T) {
	c := NewConfusion()
	c.Add(radio.ProtocolBLE, radio.ProtocolBLE)
	s := c.String()
	if !strings.Contains(s, "BLE") || !strings.Contains(s, "average accuracy") {
		t.Fatalf("table missing content:\n%s", s)
	}
}

func TestSeries(t *testing.T) {
	s := &Series{Name: "BLE", Unit: "kbps"}
	s.Add(1, 100)
	s.Add(2, 250)
	s.Add(3, 50)
	if y, ok := s.YAt(2); !ok || y != 250 {
		t.Fatalf("YAt = %v %v", y, ok)
	}
	if _, ok := s.YAt(9); ok {
		t.Fatal("missing X should report false")
	}
	if s.MaxY() != 250 {
		t.Fatalf("MaxY = %v", s.MaxY())
	}
	if got := s.LastXAbove(60); got != 2 {
		t.Fatalf("LastXAbove = %v", got)
	}
	if got := s.LastXAbove(1000); got != 0 {
		t.Fatalf("LastXAbove with unreachable threshold = %v", got)
	}
	if (&Series{}).MaxY() != 0 {
		t.Fatal("empty MaxY")
	}
}

func TestTable(t *testing.T) {
	a := &Series{Name: "A", Unit: "m"}
	a.Add(1, 10)
	a.Add(2, 20)
	b := &Series{Name: "B"}
	b.Add(2, 200)
	out := Table("dist", a, b)
	if !strings.Contains(out, "A (m)") || !strings.Contains(out, "B") {
		t.Fatalf("headers missing:\n%s", out)
	}
	// Header, separator and one markdown row per X; X=1 exists only in
	// A, so B's cell renders "-".
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 4 {
		t.Fatalf("line count = %d:\n%s", len(lines), out)
	}
	if lines[1] != "|---|---|---|" {
		t.Fatalf("separator = %q", lines[1])
	}
	if lines[2] != "| 1 | 10 | - |" {
		t.Fatalf("missing-value row = %q", lines[2])
	}
}
