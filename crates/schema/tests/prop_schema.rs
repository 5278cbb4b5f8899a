//! Per-crate property tests for the schema layer, under the in-repo
//! harness (`axml-support`): generation, validation, and the streaming
//! validator must agree on arbitrary seeds and schema instances.

use axml_schema::{
    generate_instance, read_validated, validate, validate_xml_stream, Compiled, GenConfig, ITree,
    NoOracle, Schema,
};
use axml_support::prelude::*;
use axml_support::rng::{SeedableRng, StdRng};

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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Every generated instance validates against the schema it was
    /// generated from, for any seed and any generation budget.
    #[test]
    fn generated_instances_validate(seed in 0u64..100_000, depth in 2u32..6) {
        let c = paper_compiled();
        let mut rng = StdRng::seed_from_u64(seed);
        let cfg = GenConfig { max_depth: depth as usize, ..GenConfig::default() };
        let doc = generate_instance(&c, "newspaper", &mut rng, &cfg).unwrap();
        validate(&doc, &c)
            .map_err(|e| TestCaseError::fail(format!("invalid instance {doc}: {e}")))?;
    }

    /// The streaming validator agrees with the tree validator on
    /// generated (hence extensional-or-intensional) instances.
    #[test]
    fn stream_and_tree_validators_agree(seed in 0u64..100_000) {
        let c = paper_compiled();
        let mut rng = StdRng::seed_from_u64(seed);
        let doc = generate_instance(&c, "newspaper", &mut rng, &GenConfig::default()).unwrap();
        let tree_verdict = validate(&doc, &c).is_ok();
        let xml = doc.to_xml().to_xml();
        let stream_verdict = validate_xml_stream(&xml, &c).is_ok();
        prop_assert_eq!(tree_verdict, stream_verdict, "validators disagree on {}", xml);
    }

    /// XML round-trips preserve generated instances exactly: generation
    /// never produces adjacent text nodes, so no normalization applies.
    /// The tree writer equals the DOM writer byte for byte, and the
    /// one-pass reader gives the instance back.
    #[test]
    fn generated_instances_roundtrip_via_xml(seed in 0u64..100_000) {
        let c = paper_compiled();
        let mut rng = StdRng::seed_from_u64(seed);
        let doc = generate_instance(&c, "newspaper", &mut rng, &GenConfig::default()).unwrap();
        let xml = doc.to_xml().to_xml();
        let parsed = axml_xml::parse_document(&xml).unwrap();
        let back = ITree::from_xml(&parsed.root).unwrap();
        prop_assert_eq!(&back, &doc);
        let mut written = String::new();
        doc.write_xml(&mut written).unwrap();
        let compact = axml_xml::WriteOptions::compact();
        prop_assert_eq!(&written, &axml_xml::element_to_string(&doc.to_xml(), &compact));
        prop_assert_eq!(read_validated(&written, &c), Ok(doc));
    }
}
