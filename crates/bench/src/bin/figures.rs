//! Regenerates the paper's automata figures as Graphviz DOT files.
//!
//! ```text
//! cargo run -p axml-bench --bin figures [out_dir]
//! ```
//!
//! Writes `fig4_awk.dot`, `fig5_complement.dot`, `fig6_product.dot`,
//! `fig7_complement.dot`, `fig8_product.dot`, `fig10_target.dot`,
//! `fig11_possible.dot` and `fig12_pruned.dot`. Render with
//! `dot -Tsvg fig6_product.dot -o fig6.svg`.

use axml_automata::Regex;
use axml_core::awk::{Awk, AwkLimits};
use axml_core::dot::{awk_to_dot, game_to_dot};
use axml_core::game::{complement_of, target_of, BuildMode, Game, Strategy};
use axml_schema::{Compiled, NoOracle, Schema};
use std::path::PathBuf;

fn paper_compiled() -> Compiled {
    Compiled::new(
        Schema::builder()
            .element("newspaper", "title.date.(Get_Temp|temp).(TimeOut|exhibit*)")
            .data_element("title")
            .data_element("date")
            .data_element("temp")
            .data_element("city")
            .element("exhibit", "title.(Get_Date|date)")
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

fn main() -> std::io::Result<()> {
    let out_dir: PathBuf = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "figures".to_owned())
        .into();
    std::fs::create_dir_all(&out_dir)?;
    let c = paper_compiled();
    let word: Vec<u32> = ["title", "date", "Get_Temp", "TimeOut"]
        .iter()
        .map(|n| c.alphabet().lookup(n).unwrap())
        .collect();
    let n = c.alphabet().len();
    let parse = |model: &str| {
        let mut ab = c.alphabet().clone();
        Regex::parse(model, &mut ab).expect("declared names only")
    };
    let star2 = parse("title.date.temp.(TimeOut|exhibit*)");
    let star3 = parse("title.date.temp.exhibit*");
    let awk = || Awk::build(&word, &c, 1, &AwkLimits::default()).expect("small instance");

    let write = |file: &str, contents: String| -> std::io::Result<()> {
        let path = out_dir.join(file);
        std::fs::write(&path, contents)?;
        println!("wrote {}", path.display());
        Ok(())
    };

    // Fig. 4: A_w^1.
    write("fig4_awk.dot", awk_to_dot(&awk(), c.alphabet(), "fig4_awk"))?;
    // Fig. 5: complement of (**), minimized like the paper draws it.
    write(
        "fig5_complement.dot",
        complement_of(&star2, n)
            .minimized()
            .to_dot(c.alphabet(), "fig5_complement"),
    )?;
    // Fig. 6: marked product for (**).
    let fig6 = Game::solve(Strategy::Safe, awk(), complement_of(&star2, n), BuildMode::Eager);
    assert!(fig6.wins());
    write(
        "fig6_product.dot",
        game_to_dot(&fig6, c.alphabet(), "fig6_product"),
    )?;
    // Fig. 7: complement of (***).
    write(
        "fig7_complement.dot",
        complement_of(&star3, n)
            .minimized()
            .to_dot(c.alphabet(), "fig7_complement"),
    )?;
    // Fig. 8: fully marked product for (***).
    let fig8 = Game::solve(Strategy::Safe, awk(), complement_of(&star3, n), BuildMode::Eager);
    assert!(!fig8.wins());
    write(
        "fig8_product.dot",
        game_to_dot(&fig8, c.alphabet(), "fig8_product"),
    )?;
    // Fig. 10: the target automaton A for (***).
    write(
        "fig10_target.dot",
        target_of(&star3, n).to_dot(c.alphabet(), "fig10_target"),
    )?;
    // Fig. 11: the possible-rewriting product.
    let fig11 = Game::solve(Strategy::Possible, awk(), target_of(&star3, n), BuildMode::Eager);
    assert!(fig11.wins());
    write(
        "fig11_possible.dot",
        game_to_dot(&fig11, c.alphabet(), "fig11_possible"),
    )?;
    // Fig. 12: the pruned (lazily built) product for (**).
    let fig12 = Game::solve(Strategy::Safe, awk(), complement_of(&star2, n), BuildMode::Lazy);
    println!(
        "fig12: lazy built {} nodes (eager {}), {} sink-pruned",
        fig12.stats.nodes, fig6.stats.nodes, fig12.stats.sink_pruned
    );
    write(
        "fig12_pruned.dot",
        game_to_dot(&fig12, c.alphabet(), "fig12_pruned"),
    )?;
    Ok(())
}
