package services

import "testing"

func TestClassification(t *testing.T) {
	cases := []struct {
		domain  string
		service string
		cat     Category
	}{
		{"open.spotify.com", "Spotify", CategoryAudio},
		{"audio4-fa.scdn.com", "Spotify", CategoryAudio},
		{"rr4---sn-h5q7dnz7.googlevideo.com", "Youtube", CategoryVideo},
		{"i9.ytimg.com", "Youtube", CategoryVideo},
		{"www.youtube.com", "Youtube", CategoryVideo},
		{"api-global.netflix.com", "Netflix", CategoryVideo},
		{"ipv4-c001-mrs001-ix.1.oca.nflxvideo.net", "Netflix", CategoryVideo},
		{"assets.nflxext.com", "Netflix", CategoryVideo},
		{"ocsp.sky.com", "Sky", CategoryVideo},
		{"atv-ps-eu.amazon.com", "Primevideo", CategoryVideo},
		{"www.primevideo.com", "Primevideo", CategoryVideo},
		{"www.facebook.com", "Facebook", CategorySocial},
		{"scontent-mxp1-1.xx.fbcdn.net", "Facebook", CategorySocial},
		{"api.twitter.com", "Twitter", CategorySocial},
		{"pbs.twimg.com", "Twitter", CategorySocial},
		{"www.linkedin.com", "Linkedin", CategorySocial},
		{"media.licdn.com", "Linkedin", CategorySocial},
		{"i.instagram.com", "Instagram", CategorySocial},
		{"scontent.cdninstagram.com", "Instagram", CategorySocial},
		{"m.tiktok.com", "Tiktok", CategorySocial},
		{"v16-webapp.tiktokv.com", "Tiktok", CategorySocial},
		{"p16-sign-va.tiktokcdn.com", "Tiktok", CategorySocial},
		{"www.google.com", "Google", CategorySearch},
		{"google.es", "Google", CategorySearch},
		{"www.bing.com", "Bing", CategorySearch},
		{"search.yahoo.com", "Yahoo", CategorySearch},
		{"links.duckduckgo.com", "Duckduck", CategorySearch},
		{"e1.whatsapp.net", "Whatsapp", CategoryChat},
		{"web.whatsapp.com", "Whatsapp", CategoryChat},
		{"web.telegram.org", "Telegram", CategoryChat},
		{"telegram.org", "Telegram", CategoryChat},
		{"app.snapchat.com", "Snapchat", CategoryChat},
		{"feelinsonice-hrd.appspot.com", "Snapchat", CategoryChat},
		{"web.wechat.com", "Wechat", CategoryChat},
		{"short.weixin.qq.com", "Wechat", CategoryChat},
		{"edge.skype.com", "Skype", CategoryChat},
		{"contoso.sharepoint.com", "Office365", CategoryWork},
		{"outlook.office365.com", "Office365", CategoryWork},
		{"teams.microsoft.com", "Office365", CategoryWork},
		{"www.dropbox.com", "Dropbox", CategoryWork},
		{"dl.dropboxusercontent.com", "Dropbox", CategoryWork},
	}
	for _, c := range cases {
		s, ok := Classify(c.domain)
		if !ok {
			t.Errorf("%s: unclassified, want %s", c.domain, c.service)
			continue
		}
		if s.Name != c.service || s.Category != c.cat {
			t.Errorf("%s: got %s/%s, want %s/%s", c.domain, s.Name, s.Category, c.service, c.cat)
		}
	}
}

func TestUnknownDomains(t *testing.T) {
	for _, d := range []string{"example.com", "uam.es", "polito.it", "cdn.operator.example"} {
		if s, ok := Classify(d); ok {
			t.Errorf("%s classified as %s", d, s.Name)
		}
	}
}

func TestSkypeBeatsOffice365(t *testing.T) {
	// Office365's pattern list includes "skype"-related names; the Skype
	// service must win by declaration order so chat stays chat.
	s, ok := Classify("edge.skype.com")
	if !ok || s.Name != "Skype" {
		t.Fatalf("edge.skype.com classified as %v", s)
	}
}

func TestCaseInsensitiveAndTrailingDot(t *testing.T) {
	s, ok := Classify("WWW.GOOGLE.COM.")
	if !ok || s.Name != "Google" {
		t.Fatalf("uppercase domain: %v", s)
	}
}

func TestNoFalseSubstringMatches(t *testing.T) {
	// Anchored patterns must not match look-alike domains.
	for _, d := range []string{
		"notsky.com",            // .sky.com$ must not match
		"fakegooglevideo.co.ev", // googlevideo.com$ must not match
		"mytelegram.org.evil.com",
	} {
		if s, ok := Classify(d); ok {
			t.Errorf("%s wrongly classified as %s", d, s.Name)
		}
	}
}

func TestIntentionalList(t *testing.T) {
	got := Intentional()
	if len(got) != 12 {
		t.Fatalf("%d intentional services, want the 12 Figure-6 rows", len(got))
	}
	if got[0].Name != "Google" || got[11].Name != "Dropbox" {
		t.Fatal("Figure 6 row order broken")
	}
	for _, s := range got {
		if !s.Intentional {
			t.Errorf("%s in Intentional() but not flagged", s.Name)
		}
	}
	// YouTube and Facebook appear mostly as third parties (§5).
	for _, name := range []string{"Youtube", "Facebook"} {
		s, _ := ByName(name)
		if s.Intentional {
			t.Errorf("%s flagged intentional", name)
		}
	}
}

func TestByName(t *testing.T) {
	if _, ok := ByName("Nope"); ok {
		t.Fatal("unknown service resolved")
	}
	s, ok := ByName("Netflix")
	if !ok || s.Category != CategoryVideo {
		t.Fatal("Netflix lookup broken")
	}
}

func TestCategories(t *testing.T) {
	if len(Categories()) != 6 {
		t.Fatalf("%d categories, want 6", len(Categories()))
	}
}

func TestSecondLevel(t *testing.T) {
	cases := map[string]string{
		"www.google.com":          "google.com",
		"a.b.c.nflxvideo.net":     "nflxvideo.net",
		"news.bbc.co.uk":          "bbc.co.uk",
		"shop.example.co.za":      "example.co.za",
		"portal.something.com.ng": "something.com.ng",
		"google.com":              "google.com",
		"localhost":               "localhost",
		"WWW.Example.COM.":        "example.com",
		"static.xx.fbcdn.net":     "fbcdn.net",
		"edge-mqtt.facebook.com":  "facebook.com",
	}
	for in, want := range cases {
		if got := SecondLevel(in); got != want {
			t.Errorf("SecondLevel(%q)=%q, want %q", in, got, want)
		}
	}
}
