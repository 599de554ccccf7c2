//! Pronunciation lexicon: word → phoneme sequence, with homophone support.
//!
//! The built-in dictionary covers the synthetic corpus vocabulary (including
//! deliberate homophone sets, whose members synthesize to *identical* audio
//! and therefore exercise the paper's phonetic-encoding rationale); words
//! outside the dictionary fall back to the rule-based
//! [`grapheme_to_phoneme`] converter.

use std::collections::HashMap;

use crate::g2p::grapheme_to_phoneme;
use crate::phoneme::Phoneme;

/// Built-in dictionary entries: `"word: P1 P2 ..."`.
///
/// Entries are hand-checked ARPAbet pronunciations for the irregular portion
/// of the corpus vocabulary; regular words are resolved by G2P.
const BUILTIN: &str = "\
the: DH AH\na: AH\nan: AE N\nof: AH V\nto: T UW\ntoo: T UW\ntwo: T UW\n\
and: AE N D\nyou: Y UW\ni: AY\nit: IH T\nis: IH Z\nwas: W AA Z\nare: AA R\n\
he: HH IY\nshe: SH IY\nwe: W IY\nthey: DH EY\nbe: B IY\nhis: HH IH Z\n\
her: HH ER\nmy: M AY\nyour: Y AO R\nour: AW R\nthis: DH IH S\nthat: DH AE T\n\
have: HH AE V\nhas: HH AE Z\nhad: HH AE D\ndo: D UW\ndoes: D AH Z\n\
did: D IH D\nwill: W IH L\nwould: W UH D\nwood: W UH D\ncould: K UH D\n\
should: SH UH D\ncan: K AE N\nnot: N AA T\nno: N OW\nknow: N OW\n\
yes: Y EH S\nwhat: W AH T\nwhen: W EH N\nwhere: W EH R\nwear: W EH R\n\
who: HH UW\nwhy: W AY\nhow: HH AW\nall: AO L\nsome: S AH M\nsum: S AH M\n\
one: W AH N\nwon: W AH N\nthere: DH EH R\ntheir: DH EH R\nhere: HH IY R\n\
hear: HH IY R\nfor: F AO R\nfour: F AO R\nsee: S IY\nsea: S IY\n\
right: R AY T\nwrite: R AY T\nnight: N AY T\nknight: N AY T\nnew: N UW\n\
knew: N UW\nson: S AH N\nsun: S AH N\nby: B AY\nbuy: B AY\nbye: B AY\n\
so: S OW\nsew: S OW\neight: EY T\nate: EY T\nmeet: M IY T\nmeat: M IY T\n\
week: W IY K\nweak: W IY K\nhole: HH OW L\nwhole: HH OW L\nplane: P L EY N\n\
plain: P L EY N\nflower: F L AW ER\nflour: F L AW ER\npair: P EH R\n\
pear: P EH R\nwait: W EY T\nweight: W EY T\nsight: S AY T\nsite: S AY T\n\
cite: S AY T\nsore: S AO R\nsoar: S AO R\neyes: AY Z\nwish: W IH SH\n\
wouldn't: W UH D AH N T\ndon't: D OW N T\ncan't: K AE N T\n\
open: OW P AH N\nclose: K L OW Z\nfront: F R AH N T\nback: B AE K\n\
door: D AO R\nwindow: W IH N D OW\nlight: L AY T\nlights: L AY T S\n\
turn: T ER N\non: AA N\noff: AO F\nplay: P L EY\nstop: S T AA P\n\
music: M Y UW Z IH K\nvolume: V AA L Y UW M\nup: AH P\ndown: D AW N\n\
lock: L AA K\nunlock: AH N L AA K\ngarage: G ER AA ZH\nalarm: AH L AA R M\n\
call: K AO L\nphone: F OW N\nsend: S EH N D\nmessage: M EH S IH JH\n\
read: R IY D\nred: R EH D\nemail: IY M EY L\nset: S EH T\ntimer: T AY M ER\n\
temperature: T EH M P R AH CH ER\nheat: HH IY T\ncamera: K AE M ER AH\n\
record: R IH K AO R D\ndelete: D IH L IY T\nfile: F AY L\nfiles: F AY L Z\n\
order: AO R D ER\nbrowser: B R AW Z ER\nwebsite: W EH B S AY T\n\
visit: V IH Z IH T\ntime: T AY M\ntoday: T AH D EY\ntomorrow: T AH M AA R OW\n\
morning: M AO R N IH NG\nevening: IY V N IH NG\nwater: W AO T ER\n\
people: P IY P AH L\nhouse: HH AW S\nhome: HH OW M\nroom: R UW M\n\
kitchen: K IH CH AH N\nbedroom: B EH D R UW M\nlittle: L IH T AH L\n\
good: G UH D\ngreat: G R EY T\nsmall: S M AO L\nlarge: L AA R JH\n\
old: OW L D\nyoung: Y AH NG\nlong: L AO NG\nshort: SH AO R T\n\
man: M AE N\nwoman: W UH M AH N\nchild: CH AY L D\nfriend: F R EH N D\n\
mother: M AH DH ER\nfather: F AA DH ER\nfamily: F AE M L IY\n\
day: D EY\nyear: Y IH R\nyears: Y IH R Z\nworld: W ER L D\n\
country: K AH N T R IY\ncity: S IH T IY\nstreet: S T R IY T\n\
river: R IH V ER\nmountain: M AW N T AH N\nforest: F AO R AH S T\n\
garden: G AA R D AH N\nsummer: S AH M ER\nwinter: W IH N T ER\n\
spring: S P R IH NG\nautumn: AO T AH M\nrain: R EY N\nsnow: S N OW\n\
wind: W IH N D\nstorm: S T AO R M\nvoice: V OY S\nsound: S AW N D\n\
story: S T AO R IY\nbook: B UH K\nword: W ER D\nwords: W ER D Z\n\
letter: L EH T ER\npaper: P EY P ER\nschool: S K UW L\nteacher: T IY CH ER\n\
student: S T UW D AH N T\nwork: W ER K\nworked: W ER K T\n\
walk: W AO K\nwalked: W AO K T\ntalk: T AO K\nsaid: S EH D\n\
says: S EH Z\ncome: K AH M\ncame: K EY M\ngo: G OW\nwent: W EH N T\n\
gone: G AO N\ntake: T EY K\ntook: T UH K\ngive: G IH V\ngave: G EY V\n\
make: M EY K\nmade: M EY D\nfind: F AY N D\nfound: F AW N D\n\
think: TH IH NG K\nthought: TH AO T\nlook: L UH K\nlooked: L UH K T\n\
want: W AA N T\nwanted: W AA N T IH D\nlive: L IH V\nlived: L IH V D\n\
believe: B IH L IY V\nremember: R IH M EH M B ER\nanswer: AE N S ER\n\
question: K W EH S CH AH N\nbecause: B IH K AO Z\nbefore: B IH F AO R\n\
after: AE F T ER\nagain: AH G EH N\nnever: N EH V ER\nalways: AO L W EY Z\n\
often: AO F AH N\ntogether: T AH G EH DH ER\nbetween: B IH T W IY N\n\
through: TH R UW\nthrew: TH R UW\nunder: AH N D ER\nover: OW V ER\n\
into: IH N T UW\nabout: AH B AW T\nwith: W IH TH\nfrom: F R AH M\n\
very: V EH R IY\nonly: OW N L IY\nother: AH DH ER\nmany: M EH N IY\n\
more: M AO R\nmost: M OW S T\nfirst: F ER S T\nlast: L AE S T\n\
next: N EH K S T\nevery: EH V R IY\neach: IY CH\nboth: B OW TH\n\
few: F Y UW\nquiet: K W AY AH T\nquite: K W AY T\nplease: P L IY Z\n\
thank: TH AE NG K\nhello: HH EH L OW\ngoodbye: G UH D B AY\n\
door's: D AO R Z\nheard: HH ER D\nherd: HH ER D\n";

/// A pronunciation dictionary mapping words to ARPAbet phoneme sequences.
///
/// ```
/// use mvp_phonetics::{Lexicon, Phoneme};
/// let lex = Lexicon::builtin();
/// assert_eq!(lex.pronounce("see"), lex.pronounce("sea")); // homophones
/// assert!(!lex.pronounce("zyzzyva").is_empty());          // G2P fallback
/// ```
#[derive(Debug, Clone, Default)]
pub struct Lexicon {
    entries: HashMap<String, Vec<Phoneme>>,
}

impl Lexicon {
    /// An empty lexicon (every lookup falls back to G2P).
    pub fn new() -> Lexicon {
        Lexicon::default()
    }

    /// The built-in dictionary covering the corpus vocabulary.
    pub fn builtin() -> Lexicon {
        let mut lex = Lexicon::new();
        for line in BUILTIN.lines() {
            let (word, phones) = line
                .split_once(':')
                // mvp-lint: allow(panic-path) -- BUILTIN is compiled-in data; a parse failure is a build defect, not request input
                .unwrap_or_else(|| panic!("malformed builtin lexicon line: {line}"));
            let phones: Vec<Phoneme> = phones
                .split_whitespace()
                .map(|s| {
                    Phoneme::parse(s)
                        // mvp-lint: allow(panic-path) -- BUILTIN is compiled-in data; a parse failure is a build defect, not request input
                        .unwrap_or_else(|| panic!("bad phoneme {s:?} for word {word:?}"))
                })
                .collect();
            lex.insert(word, phones);
        }
        lex
    }

    /// Inserts or replaces a pronunciation.
    ///
    /// # Panics
    ///
    /// Panics if `phones` is empty or contains [`Phoneme::SIL`].
    pub fn insert(&mut self, word: &str, phones: Vec<Phoneme>) {
        assert!(!phones.is_empty(), "empty pronunciation for {word:?}");
        assert!(!phones.contains(&Phoneme::SIL), "SIL inside pronunciation of {word:?}");
        self.entries.insert(word.to_lowercase(), phones);
    }

    /// Number of explicit entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the lexicon has no explicit entries.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Looks up the explicit pronunciation, if present.
    pub fn lookup(&self, word: &str) -> Option<&[Phoneme]> {
        self.entries.get(&word.to_lowercase()).map(Vec::as_slice)
    }

    /// Pronunciation of `word`: explicit entry or G2P fallback.
    ///
    /// Returns an empty sequence only when `word` contains no letters.
    pub fn pronounce(&self, word: &str) -> Vec<Phoneme> {
        match self.lookup(word) {
            Some(p) => p.to_vec(),
            None => grapheme_to_phoneme(word),
        }
    }

    /// Pronunciation of a whole sentence, with [`Phoneme::SIL`] separating
    /// words and framing the utterance.
    pub fn pronounce_sentence(&self, sentence: &str) -> Vec<Phoneme> {
        let mut out = vec![Phoneme::SIL];
        for token in
            sentence.split(|c: char| !(c.is_alphanumeric() || c == '\'')).filter(|t| !t.is_empty())
        {
            let phones = self.pronounce(token);
            if phones.is_empty() {
                continue;
            }
            out.extend(phones);
            out.push(Phoneme::SIL);
        }
        out
    }

    /// Iterates over the explicitly-listed words.
    pub fn words(&self) -> impl Iterator<Item = &str> {
        self.entries.keys().map(String::as_str)
    }

    /// All explicit words whose pronunciation equals that of `word`
    /// (excluding `word` itself).
    pub fn homophones_of(&self, word: &str) -> Vec<&str> {
        let Some(target) = self.lookup(word) else {
            return Vec::new();
        };
        let word_lc = word.to_lowercase();
        let mut out: Vec<&str> = self
            .entries
            .iter()
            .filter(|(w, p)| **w != word_lc && p.as_slice() == target)
            .map(|(w, _)| w.as_str())
            .collect();
        out.sort_unstable();
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builtin_parses_and_is_nontrivial() {
        let lex = Lexicon::builtin();
        assert!(lex.len() > 200, "only {} entries", lex.len());
    }

    #[test]
    fn homophone_sets() {
        let lex = Lexicon::builtin();
        assert_eq!(lex.homophones_of("to"), vec!["too", "two"]);
        assert!(lex.homophones_of("right").contains(&"write"));
        assert!(lex.homophones_of("door").is_empty());
    }

    #[test]
    fn sentence_pronunciation_framed_by_sil() {
        let lex = Lexicon::builtin();
        let p = lex.pronounce_sentence("open the door");
        assert_eq!(p.first(), Some(&Phoneme::SIL));
        assert_eq!(p.last(), Some(&Phoneme::SIL));
        assert_eq!(p.iter().filter(|&&x| x == Phoneme::SIL).count(), 4);
    }

    #[test]
    fn g2p_fallback_used_for_oov() {
        let lex = Lexicon::builtin();
        assert!(lex.lookup("blorple").is_none());
        assert!(!lex.pronounce("blorple").is_empty());
    }

    #[test]
    fn case_insensitive_lookup() {
        let lex = Lexicon::builtin();
        assert_eq!(lex.pronounce("DOOR"), lex.pronounce("door"));
    }

    #[test]
    fn insert_overrides() {
        let mut lex = Lexicon::builtin();
        lex.insert("door", vec![Phoneme::D, Phoneme::UW]);
        assert_eq!(lex.pronounce("door"), vec![Phoneme::D, Phoneme::UW]);
    }

    #[test]
    #[should_panic(expected = "empty pronunciation")]
    fn insert_empty_panics() {
        Lexicon::new().insert("x", vec![]);
    }

    #[test]
    fn no_sil_inside_builtin_entries() {
        let lex = Lexicon::builtin();
        for w in lex.words() {
            assert!(!lex.lookup(w).unwrap().contains(&Phoneme::SIL), "{w}");
        }
    }
}
