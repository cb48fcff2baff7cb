package fleet

import (
	"context"
	"fmt"
	"math/bits"
	"math/rand"
	"runtime"
	"testing"
	"time"

	"multiscatter/internal/excite"
	"multiscatter/internal/obs"
	"multiscatter/internal/sim"
)

// syntheticMerge builds a contention workload over n packets: random
// protocols with some air-collided packets, tags spread over the first
// receivers-1 receivers (the last has none, so its row must stay nil),
// and RSSIs drawn from three levels, so tags sharing a receiver tie
// exactly. Tags respond to about 60% of the clean packets.
func syntheticMerge(n, numTags, receivers int, seed int64) ([]*tagRun, []uint8) {
	rng := rand.New(rand.NewSource(seed))
	kinds := make([]uint8, n)
	for i := range kinds {
		kinds[i] = uint8(1 + rng.Intn(protocolSlots-1))
		if rng.Intn(8) == 0 {
			kinds[i] |= kindCollided
		}
	}
	words := wordsFor(n)
	slab := make([]uint64, numTags*words)
	tags := make([]*tagRun, numTags)
	for id := range tags {
		t := &tagRun{id: id, rx: rng.Intn(receivers - 1),
			responded: bitset(slab[id*words : (id+1)*words])}
		for p := range t.linked {
			t.linked[p].RSSIdBm = -60 - float64(rng.Intn(3))
		}
		for i, k := range kinds {
			if k&kindCollided == 0 && rng.Intn(5) < 3 {
				t.responded.set(i)
			}
		}
		tags[id] = t
	}
	return tags, kinds
}

// serialMerge is the reference the sharded merge must equal: every tag
// in ascending ID order, every packet in ascending index order, into a
// fully allocated matrix.
func serialMerge(tags []*tagRun, kinds []uint8, receivers int) [][]contention {
	ref := make([][]contention, receivers)
	for r := range ref {
		ref[r] = make([]contention, len(kinds))
	}
	for _, t := range tags {
		for i, k := range kinds {
			if t.responded[i>>6]&(1<<(uint(i)&63)) != 0 {
				ref[t.rx][i].add(int32(t.id), t.linked[protocolOf(k)].RSSIdBm)
			}
		}
	}
	return ref
}

// TestMergeContentionMatchesSerial: the packet-range-sharded merge
// equals the serial tag-ID-order merge cell for cell — count, winner,
// best and runner-up RSSI — across word-boundary packet counts, shard
// counts that do and do not divide the word count, private workers and
// a shared Pool, with exact RSSI ties among tags at one receiver. Rows
// of receivers no tag reports to stay unallocated.
func TestMergeContentionMatchesSerial(t *testing.T) {
	const numTags, receivers = 40, 5
	pool := NewPool(3)
	defer pool.Close()
	type exec struct {
		name    string
		pool    *Pool
		workers int
	}
	execs := []exec{{"workers=1", nil, 1}, {"workers=2", nil, 2}, {"workers=3", nil, 3}, {"pool", pool, 0}}
	for _, n := range []int{1, 63, 64, 65, 127, 128, 21861} {
		tags, kinds := syntheticMerge(n, numTags, receivers, int64(n))
		ref := serialMerge(tags, kinds, receivers)
		ties := 0
		for _, row := range ref {
			for _, c := range row {
				if c.count > 1 && c.bestRSSI == c.secondRSSI {
					ties++
				}
			}
		}
		if n >= 64 && ties == 0 {
			t.Fatalf("n=%d: workload has no exact RSSI ties", n)
		}
		for _, shards := range []int{1, 3, 7, 64} {
			for _, ex := range execs {
				name := fmt.Sprintf("n=%d/shards=%d/%s", n, shards, ex.name)
				got := mergeContention(context.Background(), ex.pool, ex.workers, shards, tags, kinds, receivers)
				if got[receivers-1] != nil {
					t.Fatalf("%s: receiver without tags got a row", name)
				}
				for r := 0; r < receivers-1; r++ {
					if got[r] == nil {
						t.Fatalf("%s: receiver %d has tags but no row", name, r)
					}
					for i := range kinds {
						if got[r][i] != ref[r][i] {
							t.Fatalf("%s: cell (rx %d, packet %d) = %+v, serial merge %+v",
								name, r, i, got[r][i], ref[r][i])
						}
					}
				}
			}
		}
	}
}

// TestResponseBitset: a bitset built with set holds exactly the packet
// indices a []int32 response list would: its popcount is the list
// length, and the bitIndex walk yields the list in ascending order,
// across word boundaries.
func TestResponseBitset(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, n := range []int{1, 63, 64, 65, 127, 128, 129, 1000} {
		for trial := 0; trial < 20; trial++ {
			var want []int32
			b := make(bitset, wordsFor(n))
			for i := 0; i < n; i++ {
				if trial == 0 || rng.Intn(3) == 0 { // trial 0: every packet
					want = append(want, int32(i))
					b.set(i)
				}
			}
			pop := 0
			for _, w := range b {
				pop += bits.OnesCount64(w)
			}
			if pop != len(want) {
				t.Fatalf("n=%d trial %d: popcount %d, responses %d", n, trial, pop, len(want))
			}
			var walked []int32
			for w, word := range b {
				for ; word != 0; word &= word - 1 {
					walked = append(walked, int32(bitIndex(w, word)))
				}
			}
			if fmt.Sprint(walked) != fmt.Sprint(want) {
				t.Fatalf("n=%d trial %d: walk %v, want %v", n, trial, walked, want)
			}
		}
	}
}

// TestDownlinkWalkAscending observes the downlink phase's bitset walk
// through DivergeHook, which it calls once per response: each tag's
// responses arrive in ascending packet order, past word boundaries, and
// number exactly the tag's responding outcomes.
func TestDownlinkWalkAscending(t *testing.T) {
	cfg := Config{
		Sources:   []excite.Source{wifiSource(300)},
		Tags:      PlaceGrid(3, 4, 4),
		Receivers: []ReceiverSpec{{X: 0, Y: 0}},
		Span:      time.Second,
		Seed:      11,
		Workers:   1,
		Obs:       obs.NewRegistry(),
	}
	walked := map[int][]int{}
	DivergeHook = func(_, tag, packet int) bool {
		walked[tag] = append(walked[tag], packet)
		return false
	}
	defer func() { DivergeHook = nil }()
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, tr := range res.Tags {
		got := walked[tr.ID]
		want := tr.Outcomes[sim.Delivered] + tr.Outcomes[sim.DecodedConcurrent] +
			tr.Outcomes[sim.CrossCollided] + tr.Outcomes[sim.LostDownlink]
		if len(got) != want {
			t.Fatalf("tag %d: walked %d responses, outcomes count %d", tr.ID, len(got), want)
		}
		for i := 1; i < len(got); i++ {
			if got[i] <= got[i-1] {
				t.Fatalf("tag %d: walk not ascending at %d: %d after %d", tr.ID, i, got[i], got[i-1])
			}
		}
		if len(got) == 0 || got[len(got)-1] < 128 {
			t.Fatalf("tag %d: walk %v does not cross two word boundaries", tr.ID, got)
		}
	}
}

// TestSparseContentionRows: contention rows are allocated only for
// receivers a tag reports to, so a deployment of a few tags among very
// many receivers costs memory in its tags, not in receivers × packets.
func TestSparseContentionRows(t *testing.T) {
	sc, err := excite.FindScenario("office")
	if err != nil {
		t.Fatal(err)
	}
	const numReceivers = 100000
	cfg := Config{
		Sources:   sc.Sources,
		Tags:      PlaceGrid(4, 10, 10),
		Receivers: PlaceReceivers(numReceivers, 1000, 1000),
		Span:      time.Second,
		Seed:      3,
		Workers:   1,
		Obs:       obs.NewRegistry(),
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	res, err := Run(cfg)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if res.NumReceivers != numReceivers {
		t.Fatalf("NumReceivers = %d, want %d", res.NumReceivers, numReceivers)
	}
	if d := after.TotalAlloc - before.TotalAlloc; d >= 64<<20 {
		t.Fatalf("run allocated %d MiB, want < 64 MiB", d>>20)
	}
}
