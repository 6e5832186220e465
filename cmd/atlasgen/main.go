// Command atlasgen generates a synthetic Atlas-like traceroute dataset for
// one of the built-in scenarios (the quiet baseline or one of the paper's
// three case studies) and writes it as NDJSON — gzip-compressed when the
// output path ends in .gz — plus a metadata sidecar (probe→AS and
// prefix→AS mappings needed for offline analysis). -case, -scale and
// -gen-workers are the input flags cmd/pinpoint and cmd/ihr share
// (internal/experiments.DefineInputs); generation runs on all CPUs by
// default, and the emitted stream is bit-identical for any worker count.
//
// Usage:
//
//	atlasgen -case ddos -scale quick -out ddos.ndjson -meta ddos.meta.json
//	atlasgen -case ddos -o ddos.ndjson.gz -gen-workers 4
//
// The output is consumed by cmd/pinpoint (and cmd/ihr's -input mode).
package main

import (
	"compress/gzip"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"strings"

	"pinpoint/internal/atlas"
	"pinpoint/internal/experiments"
	"pinpoint/internal/trace"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("atlasgen: ")

	src := experiments.DefineInputs(flag.CommandLine, "quiet", experiments.Generate)
	out := flag.String("out", "-", "results NDJSON output path (- for stdout; a .gz suffix compresses)")
	flag.StringVar(out, "o", "-", "shorthand for -out")
	metaPath := flag.String("meta", "", "metadata JSON output path (default <out>.meta.json)")
	flag.Parse()
	err := src.Build(nil)
	if err != nil {
		log.Fatal(err)
	}
	c := src.Case

	var w io.Writer = os.Stdout
	var file *os.File
	if *out != "-" {
		file, err = os.Create(*out)
		if err != nil {
			log.Fatal(err)
		}
		w = file
	}
	var zw *gzip.Writer
	if strings.HasSuffix(*out, ".gz") {
		zw = gzip.NewWriter(w)
		w = zw
	}
	if *metaPath == "" && *out != "-" {
		*metaPath = *out + ".meta.json"
	}

	tw := trace.NewWriter(w)
	n := 0
	err = c.Platform.Run(c.Start, c.End, func(r trace.Result) error {
		n++
		return tw.Write(r)
	})
	if err != nil {
		log.Fatal(err)
	}
	if err := tw.Flush(); err != nil {
		log.Fatal(err)
	}
	if zw != nil {
		if err := zw.Close(); err != nil {
			log.Fatal(err)
		}
	}
	if file != nil {
		if err := file.Close(); err != nil {
			log.Fatal(err)
		}
	}

	if *metaPath != "" {
		f, err := os.Create(*metaPath)
		if err != nil {
			log.Fatal(err)
		}
		if err := atlas.WriteMetadata(f, c.Platform.Metadata()); err != nil {
			log.Fatal(err)
		}
		if err := f.Close(); err != nil {
			log.Fatal(err)
		}
	}

	fmt.Fprintf(os.Stderr, "atlasgen: %s (%s): %d traceroutes, %s .. %s (%d generator workers)\n",
		c.Name, c.Description, n, c.Start.Format("2006-01-02 15:04"), c.End.Format("2006-01-02 15:04"),
		c.Platform.Workers())
	for _, win := range c.EventWindows {
		fmt.Fprintf(os.Stderr, "atlasgen: injected event %s .. %s\n",
			win[0].Format("2006-01-02 15:04"), win[1].Format("15:04"))
	}
}
