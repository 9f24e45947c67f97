// Command tracegen records workload access streams into the repository's
// compact trace format and inspects existing traces, so interesting patterns
// (attack payloads, generator outputs) can be stored and replayed
// deterministically through twicesim or the library.
//
// Usage:
//
//	tracegen -workload S3 -n 100000 -o s3.trace     # record
//	tracegen -inspect s3.trace                      # summarise
//
// -workload takes any name twicesim -list prints, built for one core.
package main

import (
	"cmp"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"repro/internal/dram"
	"repro/internal/experiments"
	"repro/internal/mc"
	"repro/internal/trace"
)

func main() {
	wname := flag.String("workload", "S3", "workload to record: "+strings.Join(experiments.AllWorkloads(), ", "))
	n := flag.Int("n", 100000, "accesses to record")
	out := flag.String("o", "", "output trace file (required for recording)")
	inspect := flag.String("inspect", "", "trace file to summarise instead of recording")
	seed := flag.Int64("seed", 1, "generator seed")
	flag.Parse()

	if *inspect != "" {
		if err := summarise(os.Stdout, *inspect); err != nil {
			fail(err)
		}
		return
	}
	if *out == "" {
		fail(errors.New("-o is required when recording (or use -inspect)"))
	}

	if *n <= 0 {
		fail(fmt.Errorf("-n %d: want > 0", *n))
	}
	// One core's stream on the paper-scale machine, whose DRAM is plain
	// DDR4-2400: the geometry -inspect decodes with.
	s := experiments.PaperScale()
	s.Cores = 1
	s.Seed = *seed
	w, err := s.NewWorkload(*wname, experiments.AttackRow)
	if err != nil {
		fail(err)
	}
	gen := w.Gens[0]

	f, err := os.Create(*out)
	if err != nil {
		fail(err)
	}
	if err := trace.Record(f, gen, *n); err != nil {
		_ = f.Close()
		fail(err)
	}
	info, err := f.Stat()
	if err != nil {
		_ = f.Close()
		fail(err)
	}
	// Close errors on a written trace matter: they can hide lost records.
	if err := f.Close(); err != nil {
		fail(err)
	}
	fmt.Printf("recorded %d accesses of %s to %s (%d bytes, %.2f B/access)\n",
		*n, gen.Name(), *out, info.Size(), float64(info.Size())/float64(*n))
}

// summarise writes the trace's access, write and instruction totals and its
// hottest row to w. Of rows tied for the most accesses it names the lowest
// (channel, rank, bank, row).
func summarise(w io.Writer, path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer func() { _ = f.Close() }() // read-only: close errors carry no data loss
	r, err := trace.NewReader(f)
	if err != nil {
		return err
	}
	p := dram.DDR4_2400()
	amap, err := mc.NewAddrMap(p)
	if err != nil {
		return err
	}
	var count, writes, insts int64
	rows := map[dram.Addr]int64{}
	var hottest dram.Addr
	var hotCount int64
	for {
		a, err := r.Read()
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			return err
		}
		count++
		insts += int64(a.Gap)
		if a.Write {
			writes++
		}
		d := amap.Decompose(a.Addr)
		d.Col = 0
		rows[d]++
		if c := rows[d]; c > hotCount || c == hotCount && rowBefore(d, hottest) {
			hottest, hotCount = d, c
		}
	}
	if count == 0 {
		return errors.New("empty trace")
	}
	fmt.Fprintf(w, "%s: %d accesses (%.1f%% writes), %d instructions, %d distinct rows\n",
		path, count, 100*float64(writes)/float64(count), insts, len(rows))
	fmt.Fprintf(w, "hottest row: %v with %d accesses (%.1f%% of trace)\n",
		hottest, hotCount, 100*float64(hotCount)/float64(count))
	return nil
}

// rowBefore reports whether a precedes b in (channel, rank, bank, row) order.
func rowBefore(a, b dram.Addr) bool {
	return cmp.Or(cmp.Compare(a.Channel, b.Channel), cmp.Compare(a.Rank, b.Rank),
		cmp.Compare(a.Bank, b.Bank), cmp.Compare(a.Row, b.Row)) < 0
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "tracegen:", err)
	os.Exit(1)
}
