package core

import (
	"slices"
	"testing"

	"energydb/internal/hw"
	"energydb/internal/tpch"
)

// BenchmarkLoadTPCH measures what loading TPC-H SF 0.01 costs the host, a
// layer at a time: generating the data, and placing it — Open, LoadTable
// and every table placed in all three layouts, with its statistics.
func BenchmarkLoadTPCH(b *testing.B) {
	const sf, seed = 0.01, 42
	b.Run("generate", func(b *testing.B) {
		b.ReportAllocs()
		for b.Loop() {
			tpch.Generate(sf, seed)
		}
	})
	b.Run("place", func(b *testing.B) {
		gen := tpch.Generate(sf, seed)
		names := make([]string, 0, len(gen.Tables))
		for name := range gen.Tables {
			names = append(names, name)
		}
		slices.Sort(names)
		b.ReportAllocs()
		for b.Loop() {
			db, err := Open(Config{Server: hw.SmallServer(4)})
			if err != nil {
				b.Fatal(err)
			}
			for _, name := range names {
				if err := db.LoadTable(gen.Tables[name]); err != nil {
					b.Fatal(err)
				}
				if err := db.place(name); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
}
