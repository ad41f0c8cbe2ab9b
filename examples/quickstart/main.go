// Quickstart: build the homoglyph database, detect a homograph, and
// print the warning a browser extension would show (paper Figure 12).
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"repro"
)

func main() {
	// Build the framework: SimChar computed from the built-in font,
	// united with the UC confusables list. FontFast skips the CJK and
	// Hangul bulk so this demo starts in a couple of seconds.
	fw, err := shamfinder.New(shamfinder.Config{FontScope: shamfinder.FontFast})
	if err != nil {
		log.Fatal(err)
	}

	// The reference list is normally the Alexa top sites; any brand
	// you want to protect works.
	det := fw.NewDetector([]string{"google", "paypal", "wikipedia"})

	// A user clicks this link. Is it what it looks like? The whole
	// FQDN goes in — any TLD works, .net or xn--p1ai as readily as .com.
	suspicious := "xn--ggle-0nda.com" // gοοgle.com (Greek omicron ×2)
	uni, err := shamfinder.ToUnicode(suspicious)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("checking %s (%s)\n\n", suspicious, uni)

	matches := det.DetectDomainBackend(suspicious, shamfinder.BackendPostings)
	if len(matches) == 0 {
		fmt.Println("no homograph detected")
		return
	}
	for _, m := range matches {
		fmt.Printf("HOMOGRAPH of %s\n", m.Imitated())
		for _, d := range m.Diffs {
			fmt.Printf("  position %d: %q imitates %q (flagged by %s)\n",
				d.Pos, string(d.Got), string(d.Want), d.Source)
		}
		fmt.Println()
		// The full warning context — what Figure 12 renders.
		fmt.Println(fw.Warn(m).Text())
	}

	// Reversion: map the lookalike back to the original, even without
	// knowing the reference in advance (paper Section 6.4).
	fmt.Printf("revert(%q) = %q\n", "göögle", fw.Revert("göögle"))
}
