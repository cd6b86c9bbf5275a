// Extensions demonstrates the features beyond the paper's core study
// through internal/core's experiment registry — fp16 gradient
// compression (a6), rank placement (a5) and LARS for stable
// large-batch weak scaling (x1, ~10 s of real training) — and then
// checkpoints a model.
package main

import (
	"bytes"
	"fmt"
	"log"

	"segscale/internal/checkpoint"
	"segscale/internal/core"
	"segscale/internal/deeplab"
)

func main() {
	log.SetFlags(0)

	for _, id := range []string{"a6", "a5", "x1"} {
		e, err := core.Lookup(id)
		must(err)
		res, err := e.Run(1, false)
		must(err)
		fmt.Printf("%s) %s:\n", e.ID, e.Title)
		for _, n := range res.Notes {
			fmt.Println("   " + n)
		}
		fmt.Println()
	}

	fmt.Println("checkpoint: save → restore → identical predictions:")
	m := deeplab.New(deeplab.DefaultConfig())
	var buf bytes.Buffer
	must(checkpoint.Save(&buf, m.Params(), m.BatchNorms()))
	size := buf.Len()
	restored := deeplab.New(func() deeplab.Config { c := deeplab.DefaultConfig(); c.Seed = 999; return c }())
	must(checkpoint.Load(&buf, restored.Params(), restored.BatchNorms()))
	fmt.Printf("   %d parameters restored from a %d-byte checkpoint\n", m.ParamCount(), size)
}

func must(err error) {
	if err != nil {
		log.Fatal(err)
	}
}
