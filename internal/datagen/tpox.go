package datagen

import (
	"fmt"
	"math/rand"

	"repro/internal/store"
	"repro/internal/xmldoc"
)

// Sectors are the TPoX-like security sectors.
var Sectors = []string{
	"Energy", "Materials", "Industrials", "ConsumerDiscretionary",
	"ConsumerStaples", "HealthCare", "Financials", "InformationTechnology",
	"TelecommunicationServices", "Utilities",
}

var securityTypes = []string{"Stock", "Bond", "MutualFund"}

var currencies = []string{"USD", "EUR", "CAD", "JPY", "GBP"}

var nationalities = []string{
	"American", "Canadian", "German", "Japanese", "Brazilian", "Indian",
	"Egyptian", "Nigerian", "Korean", "Spanish",
}

// TPoXConfig controls the TPoX-like generator. It fills three
// collections (securities, orders, custaccs) in the 1 : 10 : 5 ratio of
// the original benchmark's document mix.
type TPoXConfig struct {
	// Securities is the number of security documents (orders and
	// customer accounts scale from it).
	Securities int
	Seed       int64
}

func (c *TPoXConfig) fill() {
	if c.Securities <= 0 {
		c.Securities = 50
	}
}

// GenerateTPoX populates the three TPoX collections in st.
func GenerateTPoX(st *store.Store, cfg TPoXConfig) error {
	cfg.fill()
	rng := rand.New(rand.NewSource(cfg.Seed))
	g := &tpoxGen{rng: rng, nSec: cfg.Securities}

	sec := st.Get("security")
	if sec == nil {
		var err error
		if sec, err = st.Create("security"); err != nil {
			return err
		}
	}
	for i := 0; i < cfg.Securities; i++ {
		sec.Insert(g.security(i))
	}

	ord := st.Get("order")
	if ord == nil {
		var err error
		if ord, err = st.Create("order"); err != nil {
			return err
		}
	}
	for i := 0; i < cfg.Securities*10; i++ {
		ord.Insert(g.order(i))
	}

	cust := st.Get("custacc")
	if cust == nil {
		var err error
		if cust, err = st.Create("custacc"); err != nil {
			return err
		}
	}
	for i := 0; i < cfg.Securities*5; i++ {
		cust.Insert(g.custacc(i))
	}
	return nil
}

type tpoxGen struct {
	rng  *rand.Rand
	nSec int
}

func (g *tpoxGen) symbol(i int) string {
	letters := "ABCDEFGHIJKLMNOPQRSTUVWXYZ"
	return fmt.Sprintf("%c%c%c%d", letters[i%26], letters[(i/26)%26], letters[(i/676)%26], i%10)
}

func (g *tpoxGen) security(i int) *xmldoc.Document {
	s := xmldoc.NewElement("Security")
	s.AppendChild(xmldoc.Elem("Symbol", g.symbol(i)))
	s.AppendChild(xmldoc.Elem("Name", fmt.Sprintf("%s %s Corp",
		adjectives[g.rng.Intn(len(adjectives))], nouns[g.rng.Intn(len(nouns))])))
	s.AppendChild(xmldoc.Elem("SecurityType", securityTypes[g.rng.Intn(len(securityTypes))]))
	info := xmldoc.NewElement("SecurityInformation")
	info.AppendChild(xmldoc.Elem("Sector", Sectors[g.rng.Intn(len(Sectors))]))
	info.AppendChild(xmldoc.Elem("Industry", fmt.Sprintf("Industry%02d", g.rng.Intn(40))))
	s.AppendChild(info)
	price := xmldoc.NewElement("Price")
	last := 2 + g.rng.ExpFloat64()*90
	price.AppendChild(xmldoc.Elem("LastTrade", fmt.Sprintf("%.2f", last)))
	price.AppendChild(xmldoc.Elem("Open", fmt.Sprintf("%.2f", last*(0.95+0.1*g.rng.Float64()))))
	price.AppendChild(xmldoc.Elem("High", fmt.Sprintf("%.2f", last*1.05)))
	price.AppendChild(xmldoc.Elem("Low", fmt.Sprintf("%.2f", last*0.94)))
	price.AppendChild(xmldoc.Elem("Volume", fmt.Sprintf("%d", 1000+g.rng.Intn(5000000))))
	s.AppendChild(price)
	s.AppendChild(xmldoc.Elem("PE", fmt.Sprintf("%.1f", 4+g.rng.Float64()*40)))
	s.AppendChild(xmldoc.Elem("Yield", fmt.Sprintf("%.2f", g.rng.Float64()*8)))
	doc := &xmldoc.Document{Name: "sec" + g.symbol(i), Root: s}
	doc.Renumber()
	return doc
}

func (g *tpoxGen) order(i int) *xmldoc.Document {
	f := xmldoc.NewElement("FIXML")
	o := xmldoc.NewElement("Order")
	o.SetAttr("ID", fmt.Sprintf("103%06d", i))
	o.SetAttr("Acct", fmt.Sprintf("%d", 10000+g.rng.Intn(5*g.nSec)))
	o.SetAttr("Side", []string{"1", "2"}[g.rng.Intn(2)])
	o.SetAttr("TxnTm", fmt.Sprintf("2008-%02d-%02dT%02d:%02d:00", 1+g.rng.Intn(6), 1+g.rng.Intn(28), g.rng.Intn(24), g.rng.Intn(60)))
	o.SetAttr("Typ", "2")
	inst := xmldoc.NewElement("Instrmt")
	inst.SetAttr("Sym", g.symbol(g.rng.Intn(g.nSec)))
	o.AppendChild(inst)
	qty := xmldoc.NewElement("OrdQty")
	qty.SetAttr("Qty", fmt.Sprintf("%d", 10+g.rng.Intn(9990)))
	o.AppendChild(qty)
	px := xmldoc.NewElement("Px")
	px.SetAttr("Px", fmt.Sprintf("%.2f", 2+g.rng.ExpFloat64()*90))
	o.AppendChild(px)
	f.AppendChild(o)
	doc := &xmldoc.Document{Name: fmt.Sprintf("order%d", i), Root: f}
	doc.Renumber()
	return doc
}

func (g *tpoxGen) custacc(i int) *xmldoc.Document {
	c := xmldoc.NewElement("Customer")
	c.SetAttr("id", fmt.Sprintf("%d", 10000+i))
	name := xmldoc.NewElement("Name")
	name.AppendChild(xmldoc.Elem("FirstName", firstNames[g.rng.Intn(len(firstNames))]))
	name.AppendChild(xmldoc.Elem("LastName", lastNames[g.rng.Intn(len(lastNames))]))
	c.AppendChild(name)
	c.AppendChild(xmldoc.Elem("DateOfBirth", fmt.Sprintf("%04d-%02d-%02d", 1940+g.rng.Intn(50), 1+g.rng.Intn(12), 1+g.rng.Intn(28))))
	c.AppendChild(xmldoc.Elem("Nationality", nationalities[g.rng.Intn(len(nationalities))]))
	c.AppendChild(xmldoc.Elem("PremiumCustomer", []string{"true", "false"}[g.rng.Intn(2)]))
	accts := xmldoc.NewElement("Accounts")
	for a := 0; a < 1+g.rng.Intn(3); a++ {
		acct := xmldoc.NewElement("Account")
		acct.SetAttr("id", fmt.Sprintf("%d-%d", 10000+i, a))
		acct.AppendChild(xmldoc.Elem("Currency", currencies[g.rng.Intn(len(currencies))]))
		bal := xmldoc.NewElement("Balance")
		ob := xmldoc.NewElement("OnlineActualBal")
		ob.AppendChild(xmldoc.Elem("Amount", fmt.Sprintf("%.2f", g.rng.ExpFloat64()*250000)))
		bal.AppendChild(ob)
		acct.AppendChild(bal)
		hold := xmldoc.NewElement("Holdings")
		for h := 0; h < g.rng.Intn(4); h++ {
			pos := xmldoc.NewElement("Position")
			pos.AppendChild(xmldoc.Elem("Symbol", g.symbol(g.rng.Intn(g.nSec))))
			pos.AppendChild(xmldoc.Elem("Qty", fmt.Sprintf("%d", 1+g.rng.Intn(2000))))
			hold.AppendChild(pos)
		}
		acct.AppendChild(hold)
		accts.AppendChild(acct)
	}
	c.AppendChild(accts)
	doc := &xmldoc.Document{Name: fmt.Sprintf("cust%d", i), Root: c}
	doc.Renumber()
	return doc
}

// TPoXOrderXML returns a generated order document as XML text, for
// insert-update workloads.
func TPoXOrderXML(seed int64, nSecurities int) string {
	if nSecurities <= 0 {
		nSecurities = 50
	}
	g := &tpoxGen{rng: rand.New(rand.NewSource(seed)), nSec: nSecurities}
	return g.order(0).Serialize()
}
