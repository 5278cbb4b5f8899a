//! The document corpus `executor_parity` and `game_parity` share: the
//! paper's newspapers and the mirror-chain exhibit lists under their
//! target schemas, and an invoker that answers every call with a seeded
//! random instance of the function's output type.

#![allow(dead_code)]

use axml::core::invoke::{InvokeError, Invoker};
use axml::schema::{generate_output_instance, Compiled, GenConfig, ITree, NoOracle, Schema};
use axml_support::hash::fnv64;
use axml_support::rng::{RngExt, SeedableRng, StdRng};

/// Newspaper documents in the corpus.
pub const NEWSPAPERS: u64 = 100;
/// Mirror-chain documents in the corpus.
pub const MIRRORS: u64 = 30;
/// One call in this many fails with an `InvokeError`.
pub const OUTAGE_ONE_IN: u64 = 40;

/// Answers each call with a random output instance of the function's
/// declared type, drawn from one RNG seeded per case, so the answer
/// depends on the order of the calls the executor makes.
pub struct SeededInvoker<'c> {
    pub compiled: &'c Compiled,
    pub rng: StdRng,
    /// Every call attempted, failed ones included.
    pub log: Vec<String>,
}

impl<'c> SeededInvoker<'c> {
    pub fn new(compiled: &'c Compiled, seed: u64) -> Self {
        SeededInvoker {
            compiled,
            rng: StdRng::seed_from_u64(seed),
            log: Vec::new(),
        }
    }
}

impl Invoker for SeededInvoker<'_> {
    fn invoke(&mut self, function: &str, _params: &[ITree]) -> Result<Vec<ITree>, InvokeError> {
        self.log.push(function.to_owned());
        if self.rng.random_range(0..OUTAGE_ONE_IN) == 0 {
            return Err(InvokeError {
                function: function.to_owned(),
                message: "seeded outage".to_owned(),
            });
        }
        let output = &self.compiled.sig_of(function).output;
        // Long answers: a `TimeOut` answer then mostly holds a performance.
        let mut config = GenConfig::default();
        config.words.star_continue = 0.7;
        generate_output_instance(self.compiled, output, &mut self.rng, &config).map_err(|e| {
            InvokeError {
                function: function.to_owned(),
                message: e.to_string(),
            }
        })
    }
}

pub fn newspaper_schema(root_model: &str, exhibit_model: &str) -> Compiled {
    Compiled::new(
        Schema::builder()
            .element("newspaper", root_model)
            .data_element("title")
            .data_element("date")
            .data_element("temp")
            .data_element("city")
            .element("exhibit", exhibit_model)
            .data_element("performance")
            .function("Get_Temp", "city", "temp")
            .function("TimeOut", "data", "(exhibit|performance)*")
            .function("Get_Date", "title", "date")
            .build()
            .unwrap(),
        &NoOracle,
    )
    .unwrap()
}

/// The newspaper targets: the paper's (*), (**) and (***), a (***) whose
/// exhibits must carry a materialized date, and two targets that admit a
/// kept `Get_Temp` only when exhibits alone follow. Keeping `Get_Temp`
/// there is a bet on `TimeOut` answering exhibits only; in `bet2` the
/// materialized branch then accepts whatever `TimeOut` answers.
pub fn newspaper_targets() -> Vec<(&'static str, Compiled)> {
    vec![
        (
            "star",
            newspaper_schema(
                "title.date.(Get_Temp|temp).(TimeOut|exhibit*)",
                "title.(Get_Date|date)",
            ),
        ),
        (
            "star2",
            newspaper_schema(
                "title.date.temp.(TimeOut|exhibit*)",
                "title.(Get_Date|date)",
            ),
        ),
        (
            "star3",
            newspaper_schema(
                "title.date.temp.(exhibit|performance)*",
                "title.(Get_Date|date)",
            ),
        ),
        (
            "star3x",
            newspaper_schema("title.date.temp.(exhibit|performance)*", "title.date"),
        ),
        (
            "bet",
            newspaper_schema(
                "title.date.((Get_Temp.exhibit*)|(temp.(TimeOut|exhibit*)))",
                "title.(Get_Date|date)",
            ),
        ),
        (
            "bet2",
            newspaper_schema(
                "title.date.((Get_Temp.exhibit*)|(temp.(TimeOut|exhibit|performance)*))",
                "title.(Get_Date|date)",
            ),
        ),
    ]
}

pub fn exhibit(rng: &mut StdRng, title: &str) -> ITree {
    let date = if rng.random_bool(0.5) {
        ITree::func("Get_Date", vec![ITree::data("title", title)])
    } else {
        ITree::data("date", "Mon")
    };
    ITree::elem("exhibit", vec![ITree::data("title", title), date])
}

/// A newspaper in the sender's vocabulary: the temperature as data or as
/// a `Get_Temp` call; then a `TimeOut` call, some exhibits, or both.
pub fn newspaper(seed: u64) -> ITree {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut kids = vec![
        ITree::data("title", "The Sun"),
        ITree::data("date", "04/10/2002"),
    ];
    if rng.random_bool(0.75) {
        kids.push(ITree::func("Get_Temp", vec![ITree::data("city", "Paris")]));
    } else {
        kids.push(ITree::data("temp", "15 C"));
    }
    let shape = rng.random_range(0..4u32);
    if shape != 1 {
        kids.push(ITree::func("TimeOut", vec![ITree::text("exhibits")]));
    }
    if shape != 0 {
        for i in 0..rng.random_range(0..4usize) {
            kids.push(exhibit(&mut rng, &format!("Expo{i}")));
        }
    }
    ITree::elem("newspaper", kids)
}

/// The mirror chain of the solve-cache benchmark, one level shorter:
/// `Get_Date` may answer a chain of up to three more calls before a
/// date appears, and the chain dies where it runs past `k`.
pub fn mirror_schema(exhibit_model: &str) -> Compiled {
    Compiled::new(
        Schema::builder()
            .element("r", "exhibit*")
            .element("exhibit", exhibit_model)
            .data_element("title")
            .data_element("date")
            .data_element("line")
            .data_element("note")
            .function("Get_Date", "title", "date|Mirror_A1|Mirror_A2")
            .function("Mirror_A1", "", "date|Mirror_B1|Mirror_B2")
            .function("Mirror_A2", "", "date|Mirror_B1|Mirror_B2")
            .function("Mirror_B1", "", "date|Mirror_C1|Mirror_C2")
            .function("Mirror_B2", "", "date|Mirror_C1|Mirror_C2")
            .function("Mirror_C1", "", "date")
            .function("Mirror_C2", "", "date")
            .build()
            .unwrap(),
        &NoOracle,
    )
    .unwrap()
}

/// Exhibits of materialized dates, and exhibits that may also keep a
/// `Get_Date` followed by a `line`: possible rewriting keeps it first and
/// invokes it after all when a later chain dies.
pub fn mirror_targets() -> Vec<(&'static str, Compiled)> {
    vec![
        ("mirror", mirror_schema("title.(date.(line|note))*")),
        (
            "mirror_keep",
            mirror_schema("title.((date.(line|note))|(Get_Date.line))*"),
        ),
    ]
}

/// One to three exhibits, each a title and two to four (date, label)
/// pairs whose dates are mostly `Get_Date` calls.
pub fn mirror_doc(seed: u64) -> ITree {
    let mut rng = StdRng::seed_from_u64(seed);
    let exhibits = (0..rng.random_range(1..=3usize))
        .map(|e| {
            let title = format!("t{e}");
            let mut kids = vec![ITree::data("title", &title)];
            for _ in 0..rng.random_range(2..=4usize) {
                if rng.random_bool(0.8) {
                    kids.push(ITree::func("Get_Date", vec![ITree::data("title", &title)]));
                } else {
                    kids.push(ITree::data("date", "mon"));
                }
                let label = if rng.random_bool(0.5) { "line" } else { "note" };
                kids.push(ITree::data(label, "x"));
            }
            ITree::elem("exhibit", kids)
        })
        .collect();
    ITree::elem("r", exhibits)
}

/// A 32-bit digest: enough to tell two runs apart, short enough to keep
/// the corpus small.
pub fn digest(bytes: &[u8]) -> String {
    let h = fnv64(bytes);
    format!("{:08x}", (h ^ (h >> 32)) as u32)
}
