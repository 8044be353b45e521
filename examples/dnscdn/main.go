// Dnscdn: the §6.3-§6.4 study — how the choice of DNS resolver, combined
// with the forced routing through the single ground station in Italy,
// breaks CDN server selection for African customers; and what forcing the
// operator's resolver (the paper's proposed fix) would recover.
package main

import (
	"fmt"
	"log"

	"satwatch"
	"satwatch/internal/dnssim"
)

func main() {
	base, err := satwatch.New(
		satwatch.WithCustomers(250), satwatch.WithDays(1), satwatch.WithSeed(5),
	).Run()
	if err != nil {
		log.Fatal(err)
	}
	forced, err := satwatch.New(
		satwatch.WithCustomers(250), satwatch.WithDays(1), satwatch.WithSeed(5),
		satwatch.WithForcedOperatorDNS(),
	).Run()
	if err != nil {
		log.Fatal(err)
	}

	fmt.Print(base.Fig10.Render())
	fmt.Println()
	fmt.Print(base.Table2.Render())
	fmt.Println()

	// The paper's Table 2 headline: the same GeoDNS domain lands on very
	// different servers depending on the resolver's view of the client.
	fmt.Println("Nigeria, apple.com (GeoDNS) — average ground RTT by resolver:")
	for _, id := range []dnssim.ResolverID{
		dnssim.ResolverOperator, dnssim.ResolverGoogle, dnssim.ResolverNigerian, dnssim.Resolver114DNS,
	} {
		if v, ok := base.Table2.Cell("NG", id, "apple.com"); ok {
			fmt.Printf("  %-12s %6.1f ms\n", id, v*1e3)
		}
	}

	mean := func(r *satwatch.Results) float64 {
		var sum float64
		n := 0
		for key, xs := range r.Dataset.GroundRTTByDomainResolver {
			if key.Country != "NG" {
				continue
			}
			for _, x := range xs {
				sum += x
				n++
			}
		}
		if n == 0 {
			return 0
		}
		return sum / float64(n) * 1e3
	}
	fmt.Printf("\nAblation A3 — forcing the operator resolver for everyone:\n")
	fmt.Printf("  Nigerian mean ground RTT: %.1f ms (open resolvers) → %.1f ms (operator DNS)\n",
		mean(base), mean(forced))
}
