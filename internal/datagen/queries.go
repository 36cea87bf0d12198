package datagen

import (
	"fmt"
	"math/rand"

	"repro/internal/workload"
)

// Symbol returns the deterministic ticker of security i, shared between
// the data generator and the query generators so generated point queries
// actually hit data.
func Symbol(i int) string {
	letters := "ABCDEFGHIJKLMNOPQRSTUVWXYZ"
	return fmt.Sprintf("%c%c%c%d", letters[i%26], letters[(i/26)%26], letters[(i/676)%26], i%10)
}

// xmarkTemplates are the XMark query templates: the standard benchmark
// queries' access patterns "augmented with synthetic queries" as in the
// demonstration (§3). Every call instantiates fresh constants, so a
// workload contains structural repeats with varying parameters — the
// raw material for candidate generalization.
var xmarkTemplates = []func(rng *rand.Rand) string{
	func(rng *rand.Rand) string { // region + quantity (paper §2.2 example shape)
		return fmt.Sprintf(
			`for $i in collection("auction")/site/regions/%s/item where $i/quantity > %d return $i/name`,
			Regions[rng.Intn(len(Regions))], 2+rng.Intn(7))
	},
	func(rng *rand.Rand) string { // region + price range
		return fmt.Sprintf(
			`for $i in collection("auction")/site/regions/%s/item where $i/price < %d return $i`,
			Regions[rng.Intn(len(Regions))], 20+rng.Intn(180))
	},
	func(rng *rand.Rand) string { // name contains
		return fmt.Sprintf(
			`for $i in collection("auction")/site/regions/%s/item where contains($i/name, "%s") return $i/name`,
			Regions[rng.Intn(len(Regions))], nouns[rng.Intn(len(nouns))])
	},
	func(rng *rand.Rand) string { // person income
		return fmt.Sprintf(
			`for $p in collection("auction")/site/people/person where $p/profile/@income >= %d return $p/name`,
			30000+1000*rng.Intn(100))
	},
	func(rng *rand.Rand) string { // open auction initial
		return fmt.Sprintf(
			`for $a in collection("auction")/site/open_auctions/open_auction where $a/initial > %d return $a/current`,
			10+rng.Intn(150))
	},
	func(rng *rand.Rand) string { // closed auction price and date
		return fmt.Sprintf(
			`for $c in collection("auction")/site/closed_auctions/closed_auction where $c/price > %d and $c/date >= "200%d-01-01" return $c/itemref/@item`,
			20+rng.Intn(200), 6+rng.Intn(3))
	},
	func(rng *rand.Rand) string { // SQL/XML region price
		return fmt.Sprintf(
			`SELECT COUNT(*) FROM auction WHERE XMLEXISTS('$d/site/regions/%s/item[price > %d]' PASSING doc AS "d")`,
			Regions[rng.Intn(len(Regions))], 50+rng.Intn(300))
	},
	func(rng *rand.Rand) string { // category attribute equality
		return fmt.Sprintf(
			`for $i in collection("auction")/site/regions/%s/item where $i/incategory/@category = "category%d" return $i/name`,
			Regions[rng.Intn(len(Regions))], rng.Intn(20))
	},
	func(rng *rand.Rand) string { // item location
		return fmt.Sprintf(
			`for $i in collection("auction")/site/regions/%s/item where $i/location = "%s" return $i/price`,
			Regions[rng.Intn(len(Regions))], cities[rng.Intn(len(cities))])
	},
	func(rng *rand.Rand) string { // bidder increase via nested for
		return fmt.Sprintf(
			`for $a in collection("auction")/site/open_auctions/open_auction for $b in $a/bidder where $b/increase > %d return $b/date`,
			5+rng.Intn(30))
	},
}

// XMarkWorkload generates n weighted queries over the XMark-like data.
func XMarkWorkload(n int, seed int64) *workload.Workload {
	rng := rand.New(rand.NewSource(seed))
	w := &workload.Workload{Name: fmt.Sprintf("xmark-%d", seed)}
	for i := 0; i < n; i++ {
		tpl := xmarkTemplates[i%len(xmarkTemplates)]
		w.MustAddQuery(float64(1+rng.Intn(10)), tpl(rng))
	}
	return w
}

// XMarkPaperWorkload is the exact workload of the paper's §2.2 example:
// item quantities in two regions plus item prices in a third, which
// generalize to /site/regions/*/item/quantity and /site/regions/*/item/*.
func XMarkPaperWorkload() *workload.Workload {
	w := &workload.Workload{Name: "xmark-paper"}
	w.MustAddQuery(1, `for $i in collection("auction")/site/regions/namerica/item where $i/quantity > 5 return $i/name`)
	w.MustAddQuery(1, `for $i in collection("auction")/site/regions/africa/item where $i/quantity > 3 return $i/name`)
	w.MustAddQuery(1, `for $i in collection("auction")/site/regions/samerica/item where $i/price < 40 return $i/name`)
	return w
}

// XMarkUpdates appends insert/delete statements to the workload with the
// given total weight.
func XMarkUpdates(w *workload.Workload, weight float64, seed int64) {
	half := weight / 2
	if err := w.AddInsert(half, "auction", XMarkDocXML(seed)); err != nil {
		panic(err)
	}
	if err := w.AddDelete(half, "auction", "/site/closed_auctions/closed_auction"); err != nil {
		panic(err)
	}
}

// tpoxTemplates mirror the TPoX transaction mix: selective point lookups
// by ticker/account, analyst range scans, and customer-profile queries.
var tpoxTemplates []func(rng *rand.Rand, nSec int) string

func init() {
	tpoxTemplates = []func(rng *rand.Rand, nSec int) string{
		func(rng *rand.Rand, nSec int) string { // point lookup by symbol
			return fmt.Sprintf(
				`for $s in collection("security")/Security where $s/Symbol = "%s" return $s/Price/LastTrade`,
				Symbol(rng.Intn(nSec)))
		},
		func(rng *rand.Rand, nSec int) string { // sector + PE
			return fmt.Sprintf(
				`for $s in collection("security")/Security where $s/SecurityInformation/Sector = "%s" and $s/PE < %d return $s/Symbol`,
				Sectors[rng.Intn(len(Sectors))], 10+rng.Intn(30))
		},
		func(rng *rand.Rand, nSec int) string { // price range
			return fmt.Sprintf(
				`for $s in collection("security")/Security where $s/Price/LastTrade >= %d return $s/Symbol`,
				50+rng.Intn(150))
		},
		func(rng *rand.Rand, nSec int) string { // order by account (SQL/XML)
			return fmt.Sprintf(
				`SELECT COUNT(*) FROM order WHERE XMLEXISTS('$o/FIXML/Order[@Acct = "%d"]' PASSING doc AS "o")`,
				10000+rng.Intn(5*nSec))
		},
		func(rng *rand.Rand, nSec int) string { // big orders
			return fmt.Sprintf(
				`for $o in collection("order")/FIXML/Order where $o/OrdQty/@Qty > %d return $o/@ID`,
				1000+rng.Intn(8000))
		},
		func(rng *rand.Rand, nSec int) string { // orders for a symbol
			return fmt.Sprintf(
				`for $o in collection("order")/FIXML/Order where $o/Instrmt/@Sym = "%s" return $o/@ID`,
				Symbol(rng.Intn(nSec)))
		},
		func(rng *rand.Rand, nSec int) string { // wealthy accounts
			return fmt.Sprintf(
				`for $c in collection("custacc")/Customer where $c/Accounts/Account/Balance/OnlineActualBal/Amount > %d return $c/Name/LastName`,
				100000+10000*rng.Intn(40))
		},
		func(rng *rand.Rand, nSec int) string { // nationality
			return fmt.Sprintf(
				`for $c in collection("custacc")/Customer where $c/Nationality = "%s" return $c/Name/LastName`,
				nationalities[rng.Intn(len(nationalities))])
		},
		func(rng *rand.Rand, nSec int) string { // date of birth
			return fmt.Sprintf(
				`for $c in collection("custacc")/Customer where $c/DateOfBirth <= "19%d-01-01" return $c/@id`,
				55+rng.Intn(35))
		},
	}
}

// TPoXWorkload generates n weighted queries over the TPoX-like data.
func TPoXWorkload(n int, seed int64, nSecurities int) *workload.Workload {
	if nSecurities <= 0 {
		nSecurities = 50
	}
	rng := rand.New(rand.NewSource(seed))
	w := &workload.Workload{Name: fmt.Sprintf("tpox-%d", seed)}
	for i := 0; i < n; i++ {
		tpl := tpoxTemplates[i%len(tpoxTemplates)]
		w.MustAddQuery(float64(1+rng.Intn(10)), tpl(rng, nSecurities))
	}
	return w
}

// TPoXUpdates appends the TPoX-style order-entry updates (inserts of new
// orders dominate the TPoX write mix).
func TPoXUpdates(w *workload.Workload, weight float64, seed int64, nSecurities int) {
	if err := w.AddInsert(weight*0.8, "order", TPoXOrderXML(seed, nSecurities)); err != nil {
		panic(err)
	}
	if err := w.AddDelete(weight*0.2, "order", "/FIXML/Order"); err != nil {
		panic(err)
	}
}
