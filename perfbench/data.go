package main

import (
	"fmt"
	"math/rand"

	paretomon "repro"
	"repro/internal/datagen"
	"repro/internal/object"
	"repro/internal/order"
	"repro/internal/pref"
)

// users is the community size of every workload; dims is d, the movie
// generator's attribute count; poolSize is how many objects it generates.
const (
	users    = 200
	dims     = 4
	poolSize = 40000
)

// dataset is the movie generator's output at its own default seed: the
// internal profiles and object pool the engine replays and reference
// checks use, plus the same community and rows in the public API's string
// form. Every workload and every seed share it; see order.
type dataset struct {
	doms     []*order.Domain
	profiles []*pref.Profile
	pool     []object.Object
	rows     [][]string
	names    []string // user names u0..u199, community order
	attrs    []string
}

func load() *dataset {
	ds := datagen.Generate(datagen.Movie().Scaled(poolSize, users))
	d := &dataset{doms: ds.Domains[:dims], profiles: ds.Users, pool: ds.Objects}
	for i := 0; i < dims; i++ {
		d.attrs = append(d.attrs, d.doms[i].Name())
	}
	for i := range ds.Users {
		d.names = append(d.names, fmt.Sprintf("u%d", i))
	}
	d.rows = make([][]string, len(ds.Objects))
	for i, o := range ds.Objects {
		row := make([]string, dims)
		for a := 0; a < dims; a++ {
			row[a] = d.doms[a].Value(int(o.Attrs[a]))
		}
		d.rows[i] = row
	}
	return d
}

// data is the dataset in one seeded arrival order. The seed drives the
// stream and, through the op builders, the reads and lifecycle ops; the
// community stays the generator's, because communities generated from
// different seeds differ threefold in per-object work (see README.md).
type data struct {
	*dataset
	perm []int
}

func (ds *dataset) order(seed int64) *data {
	return &data{dataset: ds, perm: rand.New(rand.NewSource(seed)).Perm(len(ds.pool))}
}

// roundSeed derives round r's seed from a run's, for the workloads that
// stream a fresh order each round.
func roundSeed(seed int64, r int) int64 {
	return rand.New(rand.NewSource(seed + 7919*int64(r))).Int63()
}

// community rebuilds the generated profiles as a public Community by
// asserting each user's Hasse tuples, the way a caller loads preferences.
// It is part of set-up.
func (ds *dataset) community() (*paretomon.Community, error) {
	com := paretomon.NewCommunity(paretomon.NewSchema(ds.attrs...))
	for i, p := range ds.profiles {
		u, err := com.AddUser(ds.names[i])
		if err != nil {
			return nil, err
		}
		for a := 0; a < dims; a++ {
			for _, e := range p.Relation(a).HasseTuples() {
				if err := u.Prefer(ds.attrs[a], ds.doms[a].Value(e.Better), ds.doms[a].Value(e.Worse)); err != nil {
					return nil, err
				}
			}
		}
	}
	return com, nil
}

// object returns stream position k (0-based) as a public object named
// o<k+1>. Positions beyond the pool repeat the order under fresh names.
func (d *data) object(k int) paretomon.Object {
	return paretomon.Object{Name: objName(k), Values: d.rows[d.perm[k%len(d.perm)]]}
}

// internal returns stream position k as an engine object.
func (d *data) internal(k int) object.Object {
	return object.Object{ID: k, Attrs: d.pool[d.perm[k%len(d.perm)]].Attrs}
}

func objName(k int) string { return fmt.Sprintf("o%d", k+1) }

type opKind int

const (
	opWrite opKind = iota
	opRead
	opPrefAdd
	opPrefRetract
	opRemove
)

func (k opKind) String() string {
	return [...]string{"write", "read", "pref_add", "pref_retract", "remove"}[k]
}

// op is one step of a workload. A write carries stream positions
// [first, first+n); a read names a user; a preference op names a tuple;
// a remove names an object written earlier.
type op struct {
	kind          opKind
	first, n      int
	user          string
	attr          string
	better, worse string
	object        string
}

func (o op) lifecycle() bool { return o.kind >= opPrefAdd }

// lifecycleGen yields the lifecycle ops every workload shares: the
// assertion of one fresh tuple, its retraction, and removals. The
// asserted tuple relates two values the user leaves unordered in both
// directions, so it never closes a cycle, and its retraction restores
// the user's relation exactly. Users are visited with a fixed stride
// from a seeded start (reads walk the same way), so every run spreads its
// ops over the community instead of hitting a few users by chance.
type lifecycleGen struct {
	d    *data
	rng  *rand.Rand
	next int
	user int
	last op
}

// userStride is coprime with the community size, so the walk visits
// every user before repeating.
const userStride = 7

func newLifecycleGen(d *data, rng *rand.Rand) *lifecycleGen {
	return &lifecycleGen{d: d, rng: rng, user: rng.Intn(len(d.profiles))}
}

// pair returns the next user's fresh tuple as an assertion and its
// retraction.
func (g *lifecycleGen) pair() (assert, retract op) {
	u := g.user
	g.user = (g.user + userStride) % len(g.d.profiles)
	for {
		a := g.rng.Intn(dims)
		dom := g.d.doms[a]
		b, w := g.rng.Intn(dom.Size()), g.rng.Intn(dom.Size())
		rel := g.d.profiles[u].Relation(a)
		if b == w || rel.Has(b, w) || rel.Has(w, b) {
			continue
		}
		assert = op{kind: opPrefAdd, user: g.d.names[u], attr: g.d.attrs[a], better: dom.Value(b), worse: dom.Value(w)}
		retract = assert
		retract.kind = opPrefRetract
		return assert, retract
	}
}

// op cycles assert → retract → removal of the removable object.
func (g *lifecycleGen) op(removable int) op {
	k := g.next % 3
	g.next++
	switch k {
	case 0:
		var o op
		o, g.last = g.pair()
		return o
	case 1:
		return g.last
	default:
		return removal(removable)
	}
}

func removal(k int) op { return op{kind: opRemove, object: objName(k)} }

// reader walks the users with the same stride for frontier reads.
type reader struct {
	d    *data
	user int
}

func newReader(d *data, rng *rand.Rand) *reader { return &reader{d, rng.Intn(len(d.names))} }

func (r *reader) op() op {
	u := r.user
	r.user = (r.user + userStride) % len(r.d.names)
	return op{kind: opRead, user: r.d.names[u]}
}

// closedOps is the closed-loop step sequence: every iteration writes one
// batch and reads reads frontiers; every lifeEvery-th iteration also
// asserts and retracts one tuple, and every removeEvery-th of those
// removes the first object of the batch just written. The preference pair
// comes often so each run times many lifecycle ops; removals stay sparse
// because each one evicts an object the window engine would otherwise
// hold.
func closedOps(d *data, seed int64, batch, iterations, reads, lifeEvery int) []op {
	rng := rand.New(rand.NewSource(seed ^ 0x5eed))
	lc := newLifecycleGen(d, rng)
	rd := newReader(d, rng)
	ops := make([]op, 0, (4+reads)*iterations)
	for i := 0; i < iterations; i++ {
		ops = append(ops, op{kind: opWrite, first: i * batch, n: batch})
		for j := 0; j < reads; j++ {
			ops = append(ops, rd.op())
		}
		if i%lifeEvery != lifeEvery-1 {
			continue
		}
		add, retract := lc.pair()
		ops = append(ops, add, retract)
		if l := i / lifeEvery; l%removeEvery == removeEvery-1 {
			ops = append(ops, removal(i*batch))
		}
	}
	return ops
}

// removeEvery spaces the closed loops' removals out: one per this many
// preference pairs.
const removeEvery = 3

// openOps is the open-loop slot sequence: one slot in eight is a
// frontier read, one in eight a lifecycle op (removals take the first
// object of the latest write), the rest write a batch.
func openOps(d *data, seed int64, batch, slots int) []op {
	rng := rand.New(rand.NewSource(seed ^ 0x5eed))
	lc := newLifecycleGen(d, rng)
	rd := newReader(d, rng)
	ops := make([]op, 0, slots)
	written, lastFirst := 0, -1
	for s := 0; s < slots; s++ {
		switch {
		case s%8 == 7:
			ops = append(ops, rd.op())
		case s%8 == 3 && lastFirst >= 0:
			ops = append(ops, lc.op(lastFirst))
		default:
			ops = append(ops, op{kind: opWrite, first: written, n: batch})
			lastFirst = written
			written += batch
		}
	}
	return ops
}

// objectsIn counts the objects the ops write.
func objectsIn(ops []op) int {
	n := 0
	for _, o := range ops {
		if o.kind == opWrite {
			n += o.n
		}
	}
	return n
}
