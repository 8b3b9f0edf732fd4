// Tuning: demonstrate the performance-oriented sequencing principle's
// second lever (Section 5.2, Eq 6): assigning a weight w(C) to a frequently
// queried, highly selective element makes it sequence earlier, so queries
// that use it cut the search space sooner. The program builds the same
// corpus twice — unweighted and with the selective element promoted — and
// compares disk accesses and time for the same query workload.
package main

import (
	"bytes"
	"flag"
	"fmt"
	"log"
	"time"

	"xseq"
	"xseq/internal/datagen"
	"xseq/internal/xmltree"
)

func main() {
	n := flag.Int("n", 20000, "number of auction records")
	pool := flag.Int("pool", 64, "buffer pool pages")
	repeats := flag.Int("repeats", 50, "query repetitions per measurement")
	flag.Parse()

	_, raw, err := datagen.XMark(datagen.XMarkOptions{IdenticalSiblings: false, Seed: 23}, *n)
	if err != nil {
		log.Fatal(err)
	}
	docs := make([]*xseq.Document, len(raw))
	for i, d := range raw {
		var buf bytes.Buffer
		if err := xmltree.WriteXML(&buf, d.Root); err != nil {
			log.Fatal(err)
		}
		if docs[i], err = xseq.ParseDocumentString(d.ID, buf.String()); err != nil {
			log.Fatal(err)
		}
	}

	// The workload: creditcard lookups. Unweighted, creditcard sequences
	// AFTER the person's name — and names are near-unique, so by the time
	// the sequences reach creditcard the trie has fanned out into
	// thousands of branches and the creditcard link carries one entry per
	// branch. Weighting creditcard moves it ahead of the name fan-out,
	// collapsing those entries into a handful (Impact 2, §5.1).
	const workload = "/site//person/creditcard[text='cc7']"

	configs := []struct {
		name string
		cfg  xseq.Config
	}{
		{"unweighted g_best", xseq.Config{}},
		{"w(creditcard)=1000", xseq.Config{Weights: map[string]float64{
			"site/people/person/creditcard": 1000,
		}}},
	}
	fmt.Printf("corpus: %d records; workload: %s ×%d\n\n", *n, workload, *repeats)
	fmt.Printf("%-20s %12s %10s %14s %14s\n", "sequencing", "index nodes", "hits", "disk accesses", "total time")
	for _, c := range configs {
		ix, err := xseq.Build(docs, c.cfg)
		if err != nil {
			log.Fatal(err)
		}
		if _, err := ix.EnablePagedIO(*pool); err != nil {
			log.Fatal(err)
		}
		var hits int
		var accesses int64
		start := time.Now()
		for r := 0; r < *repeats; r++ {
			ix.DropIOCache()
			ids, err := ix.Query(workload)
			if err != nil {
				log.Fatal(err)
			}
			hits = len(ids)
			accesses += ix.IO().DiskAccesses
		}
		elapsed := time.Since(start)
		fmt.Printf("%-20s %12d %10d %14d %14v\n", c.name, ix.Stats().IndexNodes, hits,
			accesses/int64(*repeats), elapsed.Round(time.Microsecond))
	}
	fmt.Println("\npromoting the selective element moves it ahead of the name fan-out in")
	fmt.Println("every sequence, so its link shrinks and the walk filters sooner (Impact 2, §5.1)")
}
