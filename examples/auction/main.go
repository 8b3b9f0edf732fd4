// Auction: index an XMark-like corpus (item / person / open_auction /
// closed_auction substructure records) and run the paper's Table 4 queries
// with page-level disk I/O accounting over the index image — the Table 7
// experiment as a program.
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
	pool := flag.Int("pool", 128, "buffer pool pages")
	flag.Parse()

	_, raw, err := datagen.XMark(datagen.XMarkOptions{IdenticalSiblings: true, Seed: 11}, *n)
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

	ix, err := xseq.Build(docs, xseq.Config{})
	if err != nil {
		log.Fatal(err)
	}
	pages, err := ix.EnablePagedIO(*pool)
	if err != nil {
		log.Fatal(err)
	}
	s := ix.Stats()
	fmt.Printf("indexed %d auction records: %d trie nodes on %d 4KiB pages\n\n",
		s.Documents, s.IndexNodes, pages)

	queries := []struct{ name, text string }{
		{"Q1", datagen.XMarkQ1},
		{"Q2", datagen.XMarkQ2},
		{"Q3", datagen.XMarkQ3},
	}
	fmt.Printf("%-4s %-70s %8s %8s %12s\n", "", "query", "hits", "pages", "time")
	for _, q := range queries {
		ix.DropIOCache() // cold cache per query, like Table 7
		start := time.Now()
		ids, err := ix.Query(q.text)
		if err != nil {
			log.Fatal(err)
		}
		elapsed := time.Since(start)
		fmt.Printf("%-4s %-70s %8d %8d %12v\n",
			q.name, q.text, len(ids), ix.IO().DiskAccesses, elapsed.Round(time.Microsecond))
	}

	fmt.Println("\nwarm-cache rerun of Q2:")
	ix.ResetIO()
	start := time.Now()
	ids, err := ix.Query(datagen.XMarkQ2)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("     %d hits, %d disk accesses, %v (buffer pool hit ratio %.0f%%)\n",
		len(ids), ix.IO().DiskAccesses, time.Since(start).Round(time.Microsecond),
		100*float64(ix.IO().Hits)/float64(ix.IO().Reads))
}
