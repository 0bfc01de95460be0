// Package shard runs several stream.Engines as one logical psmd: a
// coordinator partitions inbound sessions across N shards by consistent
// hash on the session id, each shard reduces its sessions on a
// dedicated worker behind a bounded queue (backpressure instead of
// unbounded buffering), and a cross-shard snapshot re-interns the shard
// dictionaries into one canonical global dictionary and folds the
// shards' chains through psm.Joiner, the batch flow's join engine — so
// the served model is byte-identical to a single engine over the same
// sessions in canonical order, for any shard count and any
// interleaving (pinned by the cross-shard parity suite).
package shard

import (
	"fmt"
	"sort"
)

// vnodesPerShard is the virtual-node count each shard contributes to
// the hash ring. 64 vnodes keep the assignment within a few percent of
// uniform for small shard counts while keeping ring construction and
// lookup trivially cheap.
const vnodesPerShard = 64

// ringPoint is one virtual node: a hash position owned by a shard.
type ringPoint struct {
	hash  uint64
	shard int
}

// ring is a consistent-hash ring over shard indices: a session id maps
// to the first virtual node at or clockwise after its hash. Consistent
// hashing (rather than hash mod N) keeps most session→shard
// assignments stable when the shard count changes — only the keyspace
// adjacent to the moved vnodes reassigns — so a redeploy at a
// different -shards value re-routes a minimal fraction of returning
// session ids.
type ring struct {
	points []ringPoint
}

// newRing builds the ring for n shards. Construction is deterministic:
// vnode positions are FNV-1a hashes of "shard-<s>/vnode-<v>", ties
// broken by shard index, so every process computes the same ring.
func newRing(n int) *ring {
	pts := make([]ringPoint, 0, n*vnodesPerShard)
	for s := 0; s < n; s++ {
		for v := 0; v < vnodesPerShard; v++ {
			pts = append(pts, ringPoint{hash: fnv64(fmt.Sprintf("shard-%d/vnode-%d", s, v)), shard: s})
		}
	}
	sort.Slice(pts, func(i, j int) bool {
		if pts[i].hash != pts[j].hash {
			return pts[i].hash < pts[j].hash
		}
		return pts[i].shard < pts[j].shard
	})
	return &ring{points: pts}
}

// shardOf maps a session id to its shard.
func (r *ring) shardOf(session string) int {
	h := fnv64(session)
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	if i == len(r.points) {
		i = 0 // wrap: past the last vnode the ring starts over
	}
	return r.points[i].shard
}

// fnv64 is the 64-bit FNV-1a hash with a splitmix64-style avalanche
// finalizer. Ring placement orders points by the full 64-bit value, and
// raw FNV-1a barely diffuses short structured keys ("shard-3/vnode-17",
// "sess-42") into the high bits, which makes vnode arcs — and therefore
// shard load — visibly lumpy. The finalizer spreads every input bit
// across the word, keeping the assignment within a few percent of
// uniform (pinned by TestRingDistribution).
func fnv64(s string) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= prime64
	}
	h ^= h >> 30
	h *= 0xbf58476d1ce4e5b9
	h ^= h >> 27
	h *= 0x94d049bb133111eb
	h ^= h >> 31
	return h
}
