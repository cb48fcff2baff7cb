package fleet

import (
	"context"
	"math"
	"math/bits"

	"multiscatter/internal/excite"
	"multiscatter/internal/radio"
)

// kindCollided flags an air-collided packet in a packed event kind; the
// remaining bits hold the packet's radio.Protocol.
const kindCollided = 0x80

// packKinds packs each timeline packet's protocol and air-collided flag
// into one byte, so the tag×packet sweeps stream one byte per packet
// instead of a 32-byte excite.Event plus a separate flag. It also
// returns the per-protocol packet counts, which every tag shares, and
// the number of air-collided packets.
func packKinds(events []excite.Event, collided []bool) (kinds []uint8, perProto [protocolSlots]int, nCollided int) {
	kinds = make([]uint8, len(events))
	for i, e := range events {
		k := uint8(e.Protocol)
		if collided[i] {
			k |= kindCollided
			nCollided++
		}
		kinds[i] = k
		perProto[e.Protocol]++
	}
	return kinds, perProto, nCollided
}

// protocolOf unpacks a packed event kind's protocol.
func protocolOf(k uint8) radio.Protocol { return radio.Protocol(k &^ kindCollided) }

// bitset is a tag's response set over the timeline: bit i is set when
// the tag backscattered packet i. At one bit per (tag, packet) its size
// is fixed up front, so identify never grows it; see bitIndex for the
// walk.
type bitset []uint64

// wordsFor is the number of bitset words covering n packets.
func wordsFor(n int) int { return (n + 63) >> 6 }

// set adds packet i.
func (b bitset) set(i int) { b[i>>6] |= 1 << (uint(i) & 63) }

// bitIndex is the packet index of the lowest set bit of word, the w-th
// word of a bitset. The tag×packet walks visit a set in ascending order
// with
//
//	for w, word := range set {
//		for ; word != 0; word &= word - 1 {
//			i := bitIndex(w, word)
//
// which is the order identify set the packet indices in, so the walks'
// RNG draws and trace events follow the timeline.
func bitIndex(w int, word uint64) int { return w<<6 | bits.TrailingZeros64(word) }

// contention aggregates, for one (receiver, packet) pair, which tags
// backscattered the packet. Each cell is filled by exactly one merge
// shard, in ascending tag-ID order, so the winner of an RSSI tie is the
// lowest tag ID and the aggregate is deterministic.
type contention struct {
	count      int32
	bestTag    int32
	bestRSSI   float64
	secondRSSI float64
}

// add merges one tag's response. Callers MUST add in ascending tag-ID
// order (mergeContention does): the strictly-greater comparisons then
// make the lowest tag ID the deterministic winner of an exact RSSI tie.
// Pinned by TestContentionTieBreak.
func (c *contention) add(tag int32, rssi float64) {
	c.count++
	switch {
	case c.count == 1:
		c.bestTag, c.bestRSSI, c.secondRSSI = tag, rssi, math.Inf(-1)
	case rssi > c.bestRSSI:
		c.secondRSSI = c.bestRSSI
		c.bestTag, c.bestRSSI = tag, rssi
	case rssi > c.secondRSSI:
		c.secondRSSI = rssi
	}
}

// mergeContention builds the receivers×packets contention matrix from
// the tags' response bitsets. A receiver's row is allocated only when at
// least one tag reports to it; the others stay nil. The merge is sharded
// by packet range, not by tag: shard s owns bitset words
// [s·W/S, (s+1)·W/S) and walks every tag in ascending ID within them, so
// each (receiver, packet) cell is written by exactly one shard, which
// adds its tags in ascending ID order. The lowest-ID tie-break of
// contention.add therefore holds at any shard count, and the matrix
// does not depend on Workers or the Pool. tags must be in ascending ID
// order.
func mergeContention(ctx context.Context, pool *Pool, workers, shards int,
	tags []*tagRun, kinds []uint8, receivers int) [][]contention {
	cont := make([][]contention, receivers)
	for _, t := range tags {
		if cont[t.rx] == nil {
			cont[t.rx] = make([]contention, len(kinds))
		}
	}
	words := wordsFor(len(kinds))
	runShards(ctx, pool, workers, shards, func(s int) {
		lo, hi := s*words/shards, (s+1)*words/shards
		for _, t := range tags {
			row := cont[t.rx]
			for w := lo; w < hi; w++ {
				for word := t.responded[w]; word != 0; word &= word - 1 {
					i := bitIndex(w, word)
					row[i].add(int32(t.id), t.linked[protocolOf(kinds[i])].RSSIdBm)
				}
			}
		}
	})
	return cont
}
