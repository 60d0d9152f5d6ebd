//! The generated TPC-H database and the literal lookups queries need.

use crate::gen::{self, TpchParams};
use gpl_storage::Table;

/// All eight TPC-H relations plus the parameters that produced them.
#[derive(Debug, Clone)]
pub struct TpchDb {
    pub params: TpchParams,
    pub region: Table,
    pub nation: Table,
    pub supplier: Table,
    pub customer: Table,
    pub part: Table,
    pub partsupp: Table,
    pub orders: Table,
    pub lineitem: Table,
}

impl TpchDb {
    /// Generate the full database at the given parameters.
    pub fn generate(params: TpchParams) -> Self {
        let (orders, lineitem) = gen::gen_orders_lineitem(&params);
        TpchDb {
            region: gen::gen_region(),
            nation: gen::gen_nation(),
            supplier: gen::gen_supplier(&params),
            customer: gen::gen_customer(&params),
            part: gen::gen_part(&params),
            partsupp: gen::gen_partsupp(&params),
            orders,
            lineitem,
            params,
        }
    }

    /// Convenience: generate at a scale factor with the default seed.
    pub fn at_scale(sf: f64) -> Self {
        Self::generate(TpchParams::new(sf))
    }

    pub fn table(&self, name: &str) -> &Table {
        match name {
            "region" => &self.region,
            "nation" => &self.nation,
            "supplier" => &self.supplier,
            "customer" => &self.customer,
            "part" => &self.part,
            "partsupp" => &self.partsupp,
            "orders" => &self.orders,
            "lineitem" => &self.lineitem,
            other => panic!("unknown TPC-H table {other:?}"),
        }
    }

    pub fn tables(&self) -> [&Table; 8] {
        [
            &self.region,
            &self.nation,
            &self.supplier,
            &self.customer,
            &self.part,
            &self.partsupp,
            &self.orders,
            &self.lineitem,
        ]
    }

    /// Total simulated bytes across the relations.
    pub fn total_bytes(&self) -> u64 {
        self.tables().iter().map(|t| t.total_bytes()).sum()
    }

    /// Total host bytes of the relations' values ([`Table::host_bytes`]).
    pub fn host_bytes(&self) -> u64 {
        self.tables().iter().map(|t| t.host_bytes()).sum()
    }

    /// Dictionary code of a region name ("ASIA", "AMERICA", ...).
    pub fn region_code(&self, name: &str) -> i64 {
        self.region
            .col("r_name")
            .dictionary()
            .expect("r_name is dict")
            .code_of(name)
            .unwrap_or_else(|| panic!("unknown region {name:?}")) as i64
    }

    /// Dictionary code of a nation name ("FRANCE", "BRAZIL", ...). Nation
    /// name codes equal nation keys because the dictionary interns in key
    /// order, but queries use the dictionary for clarity.
    pub fn nation_code(&self, name: &str) -> i64 {
        self.nation
            .col("n_name")
            .dictionary()
            .expect("n_name is dict")
            .code_of(name)
            .unwrap_or_else(|| panic!("unknown nation {name:?}")) as i64
    }

    /// Dictionary code of a part type ("ECONOMY ANODIZED STEEL", ...).
    pub fn part_type_code(&self, name: &str) -> i64 {
        self.part
            .col("p_type")
            .dictionary()
            .expect("p_type is dict")
            .code_of(name)
            .unwrap_or_else(|| panic!("unknown part type {name:?}")) as i64
    }

    /// Codes of all `PROMO%` part types (Q14's `like 'PROMO%'`).
    pub fn promo_type_codes(&self) -> Vec<i64> {
        let d = self
            .part
            .col("p_type")
            .dictionary()
            .expect("p_type is dict");
        d.entries()
            .iter()
            .enumerate()
            .filter(|(_, t)| t.starts_with("PROMO"))
            .map(|(i, _)| i as i64)
            .collect()
    }

    /// Region key of each nation, indexed by nation key.
    pub fn nation_region(&self) -> Vec<i64> {
        (0..self.nation.rows())
            .map(|r| self.nation.col("n_regionkey").get_i64(r))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generate_small_db() {
        let db = TpchDb::at_scale(0.002);
        assert_eq!(db.nation.rows(), 25);
        assert_eq!(db.region.rows(), 5);
        assert!(db.lineitem.rows() > db.orders.rows());
        assert!(db.total_bytes() > 0);
        assert_eq!(db.table("orders").rows(), db.orders.rows());
    }

    /// Host storage is narrower than simulated storage, and both are
    /// pinned: a change that widens host columns fails here even where
    /// RSS noise would hide it.
    #[test]
    fn host_and_simulated_bytes_at_sf_0_01() {
        let db = TpchDb::at_scale(0.01);
        assert_eq!(db.total_bytes(), 5_016_804);
        assert_eq!(db.host_bytes(), 1_676_461);
    }

    #[test]
    fn code_lookups() {
        let db = TpchDb::at_scale(0.002);
        let asia = db.region_code("ASIA");
        assert_eq!(db.region.col("r_name").get_i64(asia as usize), asia);
        let fr = db.nation_code("FRANCE");
        let names = db
            .nation
            .col("n_name")
            .dictionary()
            .expect("n_name is dict");
        assert_eq!(names.get(fr as u32), "FRANCE");
        assert_eq!(db.promo_type_codes().len(), 25);
        let _ = db.part_type_code("ECONOMY ANODIZED STEEL");
    }

    #[test]
    #[should_panic(expected = "unknown TPC-H table")]
    fn unknown_table_panics() {
        TpchDb::at_scale(0.002).table("elephants");
    }
}
