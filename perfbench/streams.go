package main

import (
	"fmt"
	"math/rand"
	"strings"

	"hcl/internal/apps/meraculous"
)

// Every input the program sees is generated here, from the workload seed
// alone, before any container exists. The same seed gives the same
// streams; the program under test receives only the streams.

const (
	keyLen = 16 // bytes per string key
	valLen = 64 // bytes per string value
)

// kvOp is one operation of a string key/value stream.
type kvOp struct {
	find  bool
	c     int8   // target container (kv-local-grow: 0 unordered, 1 ordered)
	exact bool   // a find must return v exactly; otherwise only the key prefix is checked
	k     string // key
	v     string // value written (insert) or expected (exact find)
}

// mix is the splitmix64 finalizer. It is a bijection on uint64, so
// distinct inputs give distinct keys.
func mix(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// salt derives a per-workload constant from the seed.
func salt(seed int64, stream string) uint64 {
	h := uint64(seed)
	for _, c := range stream {
		h = mix(h ^ uint64(c))
	}
	return h
}

func rngFor(seed int64, stream string, client int) *rand.Rand {
	return rand.New(rand.NewSource(int64(mix(salt(seed, stream) + uint64(client)))))
}

// keyOf renders a distinct keyLen-byte key for each distinct id.
func keyOf(s, id uint64) string { return fmt.Sprintf("%016x", mix(id^s)) }

// valueOf renders a valLen-byte value that starts with its key, so any
// value read back can be checked against the key it was read under.
func valueOf(key string, tag uint32) string {
	v := fmt.Sprintf("%s-%08x-", key, tag)
	return v + strings.Repeat("v", valLen-len(v))
}

// remoteStreams is the kv-remote-shm input: a preloaded key set and one
// read-mostly op stream per client.
type remoteStreams struct {
	keys    []string
	preload []string // value of keys[i] before the first op
	ops     [][]kvOp
}

// genRemote draws 90% finds and 10% overwrites over uniform keys. Client
// c overwrites only keys i with i%clients == c, so each key has one
// writer: finds of a client's own keys expect its latest write exactly,
// finds of other keys check the key prefix of whatever version they see.
func genRemote(seed int64, clients, nkeys, opsPerClient int) remoteStreams {
	s := salt(seed, "kv-remote-shm")
	st := remoteStreams{keys: make([]string, nkeys), preload: make([]string, nkeys), ops: make([][]kvOp, clients)}
	for i := range st.keys {
		st.keys[i] = keyOf(s, uint64(i))
		st.preload[i] = valueOf(st.keys[i], 0)
	}
	for c := 0; c < clients; c++ {
		rng := rngFor(seed, "kv-remote-shm", c)
		cur := make(map[int]string)
		ops := make([]kvOp, opsPerClient)
		for j := range ops {
			if rng.Intn(10) == 0 {
				i := rng.Intn(nkeys/clients)*clients + c
				cur[i] = valueOf(st.keys[i], uint32(c+1)<<24|uint32(j))
				ops[j] = kvOp{k: st.keys[i], v: cur[i]}
				continue
			}
			i := rng.Intn(nkeys)
			op := kvOp{find: true, k: st.keys[i]}
			if i%clients == c {
				op.exact, op.v = true, st.preload[i]
				if v, ok := cur[i]; ok {
					op.v = v
				}
			}
			ops[j] = op
		}
		st.ops[c] = ops
	}
	return st
}

// growStreams is the kv-local-grow input: per client, half inserts of
// fresh keys and half finds of keys the same client inserted earlier,
// each op aimed at one of two containers with equal odds.
type growStreams struct {
	ops  [][]kvOp
	size [2]int // keys each container holds after the round
}

func genGrow(seed int64, clients, opsPerClient int) growStreams {
	s := salt(seed, "kv-local-grow")
	st := growStreams{ops: make([][]kvOp, clients)}
	for c := 0; c < clients; c++ {
		rng := rngFor(seed, "kv-local-grow", c)
		var written [2][]int
		ops := make([]kvOp, opsPerClient)
		for j := range ops {
			ct := rng.Intn(2)
			if rng.Intn(2) == 0 && len(written[ct]) > 0 {
				prev := ops[written[ct][rng.Intn(len(written[ct]))]]
				ops[j] = kvOp{find: true, exact: true, c: int8(ct), k: prev.k, v: prev.v}
				continue
			}
			k := keyOf(s, uint64(c)<<40|uint64(j))
			ops[j] = kvOp{c: int8(ct), k: k, v: valueOf(k, 0)}
			written[ct] = append(written[ct], j)
			st.size[ct]++
		}
		st.ops[c] = ops
	}
	return st
}

// kmerStreams is the kmer-async-tcp input: per client, the k-mer codes
// of its shard of the reads, in read order, each merged into its
// counter with +1.
type kmerStreams struct {
	codes [][]uint64
	want  map[uint64]uint32 // expected count per code after the round
}

// genKmer draws a genome and its reads with the Meraculous application's
// own generator and splits the reads over the clients as its
// CountKmersHCL does: client c counts the k-mers of ReadShard(c).
func genKmer(seed int64, clients int, cfg meraculous.GenomeConfig) kmerStreams {
	cfg.Seed = seed
	g := meraculous.Generate(cfg)
	st := kmerStreams{codes: make([][]uint64, clients), want: make(map[uint64]uint32)}
	for c := 0; c < clients; c++ {
		lo, hi := g.ReadShard(c, clients)
		g.ForEachKmer(meraculous.K, lo, hi, func(code uint64) {
			st.codes[c] = append(st.codes[c], code)
			st.want[code]++
		})
	}
	return st
}
