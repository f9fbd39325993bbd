package engine

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"testing"
	"time"

	"opdaemon/internal/core"
)

// FuzzOpIndexSearch checks opIndex's galloping search differentially:
// for keys present and absent at the oldest end, the newest end, every
// power-of-two distance from it and one position the input picks, search
// must return what sort.Search over the whole slice returns, and insert,
// replace and remove must leave the slice equal to a reference built by
// plain slice surgery at that position. CreatedAt comes from a few
// instants, so most neighbours tie and descending ID decides their order.
func FuzzOpIndexSearch(f *testing.F) {
	sizes := []int{0, 1, 2, 3}
	for k := 2; k <= 12; k++ {
		sizes = append(sizes, 1<<k-1, 1<<k, 1<<k+1)
	}
	for i, n := range sizes {
		f.Add(uint16(n), uint8(i%4), int64(n), uint16(n/2))
	}

	f.Fuzz(func(t *testing.T, size uint16, instants uint8, seed int64, pos uint16) {
		n := int(size) % 4101
		r := rand.New(rand.NewSource(seed))
		t0 := time.Unix(1000, 0)
		// Present IDs are even, so an odd ID next to one is an absent key
		// that sorts right beside it.
		ops := make([]*core.Operation, n)
		for i := range ops {
			at := t0.Add(time.Duration(r.Intn(1+int(instants)%8)) * time.Second)
			ops[i] = &core.Operation{ID: fmt.Sprintf("%05d", 2*i+2), CreatedAt: at}
		}
		sort.Slice(ops, func(a, b int) bool { return indexLess(ops[a], ops[b].CreatedAt, ops[b].ID) })

		positions := []int{0, n - 1, int(pos) % max(n, 1)}
		for d := 1; d <= n; d *= 2 {
			positions = append(positions, n-d, n-d-1)
		}
		for _, p := range positions {
			if p < 0 || p >= n {
				continue
			}
			id := ops[p].ID
			checkIndexKey(t, ops, ops[p].CreatedAt, id, true)
			checkIndexKey(t, ops, ops[p].CreatedAt, id[:4]+string(id[4]+1), false)
			checkIndexKey(t, ops, ops[p].CreatedAt, id[:4]+string(id[4]-1), false)
		}
		// Keys older and newer than every entry: positions 0 and n.
		checkIndexKey(t, ops, t0.Add(-time.Second), "00000", false)
		checkIndexKey(t, ops, t0.Add(time.Hour), "99999", false)
	})
}

// indexLess is the index order spelled out apart from opBefore:
// ascending CreatedAt, ties by descending ID.
func indexLess(a *core.Operation, at time.Time, id string) bool {
	if an, bn := a.CreatedAt.UnixNano(), at.UnixNano(); an != bn {
		return an < bn
	}
	return a.ID > id
}

// checkIndexKey searches a copy of the sorted ops for the key (at, id)
// and applies the mutation the key allows: insert when it is absent,
// replace and remove when it is present.
func checkIndexKey(t *testing.T, ops []*core.Operation, at time.Time, id string, present bool) {
	t.Helper()
	want := sort.Search(len(ops), func(i int) bool { return !indexLess(ops[i], at, id) })
	ix := opIndex{ops: slices.Clone(ops)}
	if got := ix.search(at, id); got != want {
		t.Fatalf("n=%d: search(%d, %s) = %d, want %d", len(ops), at.Unix(), id, got, want)
	}
	op := &core.Operation{ID: id, CreatedAt: at}
	if !present {
		ix.insert(op)
		checkIndexOps(t, "insert", id, ix.ops, slices.Insert(slices.Clone(ops), want, op))
		return
	}
	ix.replace(op)
	ref := slices.Clone(ops)
	ref[want] = op
	checkIndexOps(t, "replace", id, ix.ops, ref)
	ix.remove(at, id)
	checkIndexOps(t, "remove", id, ix.ops, slices.Delete(ref, want, want+1))
}

func checkIndexOps(t *testing.T, what, id string, got, want []*core.Operation) {
	t.Helper()
	if !slices.Equal(got, want) {
		t.Fatalf("n=%d: after %s of %s the index differs from the sorted reference", len(want), what, id)
	}
}
