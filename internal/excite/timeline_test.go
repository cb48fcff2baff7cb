package excite

import (
	"math/rand"
	"reflect"
	"sort"
	"strconv"
	"testing"
	"time"

	"multiscatter/internal/radio"
)

// sortedReference is Timeline as it was built before the merge: the
// same concatenation, ordered by sort.Slice.
func sortedReference(sources []Source, span time.Duration, seed int64) []Event {
	events, _ := sourceRuns(sources, span, rand.New(rand.NewSource(seed)))
	sort.Slice(events, func(i, j int) bool { return events[i].Start < events[j].Start })
	return events
}

func TestTimelineMergeMatchesSort(t *testing.T) {
	for _, sc := range Scenarios() {
		for seed := int64(1); seed <= 40; seed++ {
			for _, span := range []time.Duration{50 * time.Millisecond, time.Second} {
				got := Timeline(sc.Sources, span, rand.New(rand.NewSource(seed)))
				want := sortedReference(sc.Sources, span, seed)
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("%s seed %d span %v: merged timeline differs from sort.Slice", sc.Name, seed, span)
				}
			}
		}
	}
}

func TestTimelineCrossSourceTieFallsBack(t *testing.T) {
	// Hand-built runs: source 1's second packet starts with source 0's.
	events := []Event{
		{Start: 1, Source: 0}, {Start: 5, Source: 0},
		{Start: 2, Source: 1}, {Start: 5, Source: 1}, {Start: 9, Source: 1},
	}
	if _, ok := mergeRuns(events, []int{2, 5}); ok {
		t.Fatal("a cross-source start tie must not merge")
	}
	// A tie within one source merges: its events are equal values.
	same := []Event{{Start: 3, Source: 0}, {Start: 3, Source: 0}, {Start: 1, Source: 1}}
	got, ok := mergeRuns(same, []int{2, 3})
	if !ok || got[0].Start != 1 || got[1].Start != 3 || got[2].Start != 3 {
		t.Fatalf("within-source tie: got %v ok=%v", got, ok)
	}

	// Timeline takes the fallback for sources whose 1 ns mean spacing
	// puts packets of both at the same instants.
	fast := Source{Protocol: radio.ProtocolBLE, PacketRate: 1e9, PacketDuration: time.Nanosecond}
	slow := fast
	slow.Protocol = radio.ProtocolZigBee
	sources := []Source{fast, slow}
	runs, ends := sourceRuns(sources, 20, rand.New(rand.NewSource(3)))
	if _, ok := mergeRuns(runs, ends); ok {
		t.Fatal("expected the tie fixture to need the fallback")
	}
	got = Timeline(sources, 20, rand.New(rand.NewSource(3)))
	if want := sortedReference(sources, 20, 3); !reflect.DeepEqual(got, want) {
		t.Fatal("fallback timeline differs from sort.Slice")
	}
}

var sinkEvents []Event

func BenchmarkTimeline(b *testing.B) {
	sc, err := FindScenario("office")
	if err != nil {
		b.Fatal(err)
	}
	for _, span := range []time.Duration{time.Second, 10 * time.Second} {
		b.Run("office/span="+strconv.Itoa(int(span/time.Second))+"s", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				sinkEvents = Timeline(sc.Sources, span, rand.New(rand.NewSource(int64(i))))
			}
		})
	}
}
