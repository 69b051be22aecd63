"""Regenerate the bundled reference data under src/circuitforge/data/.

Writes four files: connectome.tsv + roles.tsv (raw synapse graph over
individual neurons), aggregation.tsv (raw -> functional grouping), and
cri_table.csv (per-neuron correlation indexes).  The index table and the
role assignments are fixed reference values; the synapse counts are a
deterministic, role-structured reconstruction calibrated so that the
documented pipeline (select 11 -> extend with k=3) recovers a 22-neuron,
21-edge circuit end to end.

Run from the repository root:  python scripts/make_reference_data.py
"""
from __future__ import annotations

import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from circuitforge.arch import (
    synthesize_circuit_arch,
    synthesize_randomized_arch,
    synthesize_sequential_arch,
    param_count,
    validate,
)
from circuitforge.connectome import (
    AGGREGATION_TSV,
    Connectome,
    Role,
    aggregate_functional,
    edge_weight,
    load_aggregation,
    load_connectome,
    save_connectome,
    write_table,
)
from circuitforge.cri import CriTable, TopK, load_cri_table, select_correlated, write_cri_table
from circuitforge.extraction import ExtractionConfig, extract_circuits, sparsity

SEED = 20240822

# ---------------------------------------------------------------------------
# Reference correlation indexes, one row per functional neuron (121 total).

CRI_VALUES = {
    "I1": 76.20, "I2": 24.14, "I3": 73.24, "I4": 48.71, "I5": 33.67,
    "I6": 19.02, "M1": 24.11, "M2": 27.29, "M3": 23.28, "M4": 46.37,
    "M5": 20.83, "MC": 39.46, "MI": 11.88, "NSM": 40.44, "ASI": 196.67,
    "ASJ": 114.12, "AWA": 168.32, "ASG": 39.42, "AWB": 44.72, "ASEL": 29.98,
    "ASER": 87.19, "ADF": 77.80, "AFD": 148.39, "AWC": 114.14, "ASK": 221.88,
    "ASH": 70.08, "ADL": 289.51, "BAG": 17.44, "URX": 27.61, "ALN": 47.57,
    "PLN": 29.92, "SDQ": 15.04, "AQR": 18.17, "PQR": 21.58, "ALM": 16.92,
    "AVM": 15.57, "PVM": 21.70, "PLM": 16.86, "FLP": 45.12, "DVA": 22.71,
    "PVD": 23.26, "ADE": 23.08, "PDE": 66.95, "PHA": 64.58, "PHB": 145.40,
    "PHC": 15.94, "IL2_DV": 51.08, "IL2_LR": 35.32, "CEP": 16.85,
    "URY": 22.48, "OLL": 10.73, "OLQ": 19.05, "IL1": 32.00, "AIN": 42.26,
    "AIM": 12.75, "RIH": 22.59, "URB": 22.63, "RIR": 18.92, "AIY": 10.83,
    "AIA": 22.60, "AUA": 15.91, "AIZ": 9.92, "RIS": 38.09, "ALA": 21.37,
    "PVQ": 6.22, "ADA": 13.50, "RIF": 18.14, "BDU": 16.73, "PVR": 10.77,
    "AVF": 12.41, "AVH": 22.14, "PVP": 17.54, "LUA": 47.80, "PVN": 110.22,
    "AVG": 19.56, "DVB": 20.38, "RIB": 26.92, "RIG": 12.16, "RMG": 7.73,
    "AIB": 5.76, "RIC": 31.01, "SAA": 15.27, "AVK": 4.13, "DVC": 36.16,
    "AVJ": 11.69, "PVT": 30.11, "AVD": 15.52, "AVL": 12.18, "PVW": 29.92,
    "RIA": 8.25, "RIM": 5.32, "AVE": 9.81, "RMF": 18.69, "RID": 11.17,
    "AVB": 11.00, "AVA": 33.75, "PVC": 12.56, "RIP": 11.22, "URA": 29.45,
    "RME_LR": 30.14, "RME_DV": 17.44, "RMD_DV": 17.48, "RMD": 13.30,
    "RIV": 8.79, "RMH": 16.11, "SAB": 42.23, "SMD": 9.65, "SMB": 12.98,
    "SIB": 17.72, "SIA": 25.58, "DA": 37.78, "PDA": 59.73, "DB": 34.03,
    "AS": 19.04, "PDB": 8.43, "VA": 54.20, "VB": 71.87, "VD": 52.25,
    "CAN": 124.36, "HSN": 27.93, "VC": 20.47,
}

SENSORY = {
    "ASI", "ASJ", "AWA", "ASG", "AWB", "ASEL", "ASER", "ADF", "AFD", "AWC",
    "ASK", "ASH", "ADL", "BAG", "URX", "ALN", "PLN", "AQR", "PQR", "ALM",
    "AVM", "PVM", "PLM", "FLP", "PVD", "ADE", "PDE", "PHA", "PHB", "PHC",
    "IL2_DV", "IL2_LR", "CEP", "URY", "OLL", "OLQ",
}
MOTOR = {
    "M1", "M2", "M3", "M4", "M5", "MC", "MI", "NSM",
    "DA", "PDA", "DB", "AS", "PDB", "VA", "VB", "VD", "VC", "SAB",
    "RME_LR", "RME_DV", "RMD_DV", "RMD", "RIV", "RMH", "SMD", "SMB",
    "URA", "IL1", "HSN", "PVN", "DVB", "AVL",
}


def functional_roles() -> dict[str, Role]:
    roles = {}
    for name in CRI_VALUES:
        if name in SENSORY:
            roles[name] = Role.SENSORY
        elif name in MOTOR:
            roles[name] = Role.MOTOR
        else:
            roles[name] = Role.INTER
    return roles


# ---------------------------------------------------------------------------
# Raw membership of each functional group (left/right and dorsal/ventral
# homologues, numbered motor classes, and the handful of irregular groups).

_LR = [
    "ASI", "ASJ", "AWA", "ASG", "AWB", "ADF", "AFD", "AWC", "ASK", "ASH",
    "ADL", "BAG", "URX", "ALN", "PLN", "ALM", "PLM", "FLP", "PVD", "ADE",
    "PDE", "PHA", "PHB", "PHC", "OLL",
    "I1", "I2", "M2", "M3", "MC", "NSM",
    "SDQ", "AIN", "AIM", "URB", "AIY", "AIA", "AUA", "AIZ", "PVQ", "ADA",
    "RIF", "BDU", "AVF", "AVH", "PVP", "LUA", "RIB", "RIG", "RMG", "AIB",
    "RIC", "AVK", "AVJ", "AVD", "PVW", "RIA", "RIM", "AVE", "RMF", "AVB",
    "AVA", "PVC", "RIP", "CAN",
    "RMD", "RIV", "RMH", "HSN", "PVN",
]
_DV_QUAD = ["CEP", "URY", "OLQ", "URA", "SAA", "SMD", "SMB", "SIB", "SIA"]
_SINGLE = [
    "ASEL", "ASER", "AQR", "PQR", "AVM", "PVM", "DVA",
    "I3", "I4", "I5", "I6", "M1", "M4", "M5", "MI",
    "RIH", "RIR", "RIS", "ALA", "PVR", "AVG", "DVC", "PVT", "RID",
    "PDA", "PDB", "DVB", "AVL",
]
_NUMBERED = {"DA": 9, "DB": 7, "VA": 12, "VB": 11, "VD": 13, "VC": 6, "AS": 11}
_IRREGULAR = {
    "SAB": ("SABD", "SABVL", "SABVR"),
    "IL1": ("IL1L", "IL1R", "IL1DL", "IL1DR", "IL1VL", "IL1VR"),
    "IL2_LR": ("IL2L", "IL2R"),
    "IL2_DV": ("IL2DL", "IL2DR", "IL2VL", "IL2VR"),
    "RME_LR": ("RMEL", "RMER"),
    "RME_DV": ("RMED", "RMEV"),
    "RMD_DV": ("RMDDL", "RMDDR", "RMDVL", "RMDVR"),
}


def member_map() -> dict[str, tuple[str, ...]]:
    members: dict[str, tuple[str, ...]] = {}
    for name in _LR:
        members[name] = (name + "L", name + "R")
    for name in _DV_QUAD:
        members[name] = (name + "DL", name + "DR", name + "VL", name + "VR")
    for name in _SINGLE:
        members[name] = (name,)
    for name, count in _NUMBERED.items():
        members[name] = tuple(f"{name}{i}" for i in range(1, count + 1))
    members.update(_IRREGULAR)
    assert set(members) == set(CRI_VALUES), "membership map must cover every functional neuron"
    return members


# ---------------------------------------------------------------------------
# Functional-level synapse graph.  The rows below pin every neighbour list
# the extraction step ranks: the outgoing lists of the 9 high-index sensory
# neurons and of the interneurons they recruit, and both lists of the two
# non-sensory picks (CAN, PVN).  Everything else is background fill.

DESIGNED_CHEM = {
    # outgoing lists of the nine top-index sensory neurons
    ("ADL", "AIB"): 26, ("ADL", "ASH"): 12, ("ADL", "SMD"): 9, ("ADL", "AVA"): 5,
    ("ASK", "AIB"): 24, ("ASK", "ASI"): 11, ("ASK", "AWA"): 8, ("ASK", "CAN"): 3,
    ("ASI", "RIA"): 18, ("ASI", "ASK"): 9, ("ASI", "AWB"): 6, ("ASI", "AIA"): 2,
    ("AWA", "AIZ"): 21, ("AWA", "ASH"): 10, ("AWA", "AWB"): 7,
    ("AFD", "AIY"): 23, ("AFD", "ASER"): 8, ("AFD", "ASEL"): 6,
    ("AWC", "AIY"): 26, ("AWC", "ASEL"): 10, ("AWC", "ASER"): 7,
    ("ASER", "AIZ"): 19, ("ASER", "AWC"): 9, ("ASER", "AWA"): 5,
    ("ASJ", "CAN"): 16, ("ASJ", "ASK"): 7, ("ASJ", "ASI"): 5,
    ("PHB", "AIB"): 22, ("PHB", "PVN"): 15, ("PHB", "PHA"): 8,
    # outgoing lists of the recruited interneurons
    ("AIB", "SMD"): 17, ("AIB", "RIV"): 13, ("AIB", "AVA"): 10, ("AIB", "RIM"): 6,
    ("AIY", "SMB"): 17, ("AIY", "RME_DV"): 11, ("AIY", "AIZ"): 8, ("AIY", "RIA"): 5,
    ("AIZ", "RMD"): 18, ("AIZ", "RIV"): 12, ("AIZ", "RIB"): 7,
    ("RIA", "RMD"): 18, ("RIA", "RME_LR"): 14, ("RIA", "RIM"): 9, ("RIA", "SMD"): 5,
    ("CAN", "PVN"): 14, ("CAN", "PVC"): 6, ("CAN", "PVQ"): 3,
    # remaining inputs of CAN and PVN, plus free texture around ASH
    ("ASH", "CAN"): 14, ("ASH", "AVA"): 25, ("ASH", "AVD"): 12, ("ASH", "RIC"): 5,
    ("AVA", "CAN"): 6,
    ("DVB", "PVN"): 9,
}
DESIGNED_ELEC = {("ADL", "AIB"): 3, ("AIB", "SMD"): 3, ("RIA", "RMD"): 3, ("CAN", "PVN"): 3}

# Neurons whose outgoing list above is complete, and neurons whose incoming
# list is complete; background edges must not disturb either.
OUT_PINNED = {"ADL", "ASK", "ASI", "AWA", "AFD", "AWC", "ASER", "ASJ", "PHB",
              "AIB", "AIY", "AIZ", "RIA", "CAN"}
IN_PINNED = {"CAN", "PVN"}

# The circuit the shipped data must reproduce (weight = chem + elec).
EXPECTED_EDGES = {
    ("ADL", "AIB"): 29.0, ("ASK", "AIB"): 24.0, ("PHB", "AIB"): 22.0,
    ("AWC", "AIY"): 26.0, ("AFD", "AIY"): 23.0, ("AWA", "AIZ"): 21.0,
    ("ASER", "AIZ"): 19.0, ("ASI", "RIA"): 18.0, ("ASJ", "CAN"): 16.0,
    ("ASH", "CAN"): 14.0, ("PHB", "PVN"): 15.0, ("ADL", "SMD"): 9.0,
    ("AIB", "SMD"): 20.0, ("AIB", "RIV"): 13.0, ("AIY", "SMB"): 17.0,
    ("AIY", "RME_DV"): 11.0, ("AIZ", "RMD"): 18.0, ("AIZ", "RIV"): 12.0,
    ("RIA", "RMD"): 21.0, ("RIA", "RME_LR"): 14.0, ("CAN", "PVN"): 17.0,
}
EXPECTED_SELECTION = {
    "sensory": {"ADL", "ASK", "ASI", "AWA", "AFD", "PHB", "AWC", "ASJ", "ASER"},
    "inter": {"CAN"},
    "motor": {"PVN"},
}

_BACKGROUND_P = {
    (Role.SENSORY, Role.SENSORY): 0.04, (Role.SENSORY, Role.INTER): 0.16,
    (Role.SENSORY, Role.MOTOR): 0.03, (Role.INTER, Role.SENSORY): 0.03,
    (Role.INTER, Role.INTER): 0.12, (Role.INTER, Role.MOTOR): 0.14,
    (Role.MOTOR, Role.SENSORY): 0.01, (Role.MOTOR, Role.INTER): 0.04,
    (Role.MOTOR, Role.MOTOR): 0.06,
}


def build_functional_graph(rng: np.random.Generator,
                           roles: dict[str, Role]) -> tuple[dict, dict]:
    chem = dict(DESIGNED_CHEM)
    elec: dict[tuple[str, str], int] = {}
    for (a, b), e in DESIGNED_ELEC.items():
        elec[(a, b)] = elec[(b, a)] = e

    names = sorted(CRI_VALUES)
    for a in names:
        if a in OUT_PINNED:
            continue
        for b in names:
            if b == a or b in IN_PINNED or (a, b) in chem:
                continue
            if rng.random() < _BACKGROUND_P[(roles[a], roles[b])]:
                chem[(a, b)] = min(int(rng.geometric(0.4)), 15)
    free = [n for n in names if n not in OUT_PINNED and n not in IN_PINNED]
    for idx, a in enumerate(free):
        for b in free[idx + 1:]:
            if rng.random() < 0.05:
                e = int(rng.integers(1, 6))
                elec[(a, b)] = elec[(b, a)] = e

    touched = {n for pair in list(chem) + list(elec) for n in pair}
    for name in names:
        if name in touched:
            continue
        w = int(rng.integers(2, 5))
        if roles[name] is Role.MOTOR:
            chem[("AVB", name)] = w
        else:
            partner = "RIH" if name != "RIH" else "AVB"
            chem[(name, partner)] = w
    return chem, elec


def split_to_raw(rng: np.random.Generator, members: dict[str, tuple[str, ...]],
                 chem: dict, elec: dict) -> tuple[dict, dict]:
    chem_raw: dict[tuple[str, str], int] = {}
    for (f1, f2) in sorted(chem):
        count = chem[(f1, f2)]
        m1, m2 = members[f1], members[f2]
        n_pairs = len(m1) * len(m2)
        k = min(n_pairs, count, 1 + int(rng.integers(0, 3)))
        picks = rng.choice(n_pairs, size=k, replace=False)
        if k == 1:
            parts = [count]
        else:
            cuts = np.sort(rng.choice(np.arange(1, count), size=k - 1, replace=False))
            parts = np.diff(np.concatenate(([0], cuts, [count])))
        for flat, part in zip(picks, parts):
            i, j = divmod(int(flat), len(m2))
            pair = (m1[i], m2[j])
            chem_raw[pair] = chem_raw.get(pair, 0) + int(part)

    elec_raw: dict[tuple[str, str], int] = {}
    for (f1, f2) in sorted(p for p in elec if p[0] < p[1]):
        m1, m2 = members[f1], members[f2]
        a = m1[int(rng.integers(len(m1)))]
        b = m2[int(rng.integers(len(m2)))]
        elec_raw[(a, b)] = elec_raw[(b, a)] = elec[(f1, f2)]
    # gap junctions inside a homologue pair; aggregation collapses these away
    for name in sorted(members):
        group = members[name]
        if len(group) >= 2 and rng.random() < 0.5:
            e = int(rng.integers(1, 4))
            elec_raw[(group[0], group[1])] = elec_raw[(group[1], group[0])] = e

    # every raw neuron must appear in at least one synapse; stitch any
    # leftover member to a sibling (intra-group, so aggregation drops it)
    touched = {n for pair in chem_raw for n in pair}
    touched |= {n for pair in elec_raw for n in pair}
    for name in sorted(members):
        group = members[name]
        for m in group:
            if m in touched:
                continue
            assert len(group) >= 2, f"singleton {m} left isolated"
            sib = group[0] if m != group[0] else group[1]
            e = int(rng.integers(1, 4))
            elec_raw[(m, sib)] = elec_raw[(sib, m)] = e
            touched.add(m)
    return chem_raw, elec_raw


def verify(data_dir: Path) -> None:
    raw = load_connectome(data_dir / "connectome.tsv", data_dir / "roles.tsv")
    n_members = sum(len(g) for g in member_map().values())
    assert len(raw.neurons) == n_members == 296, (
        f"raw graph touches {len(raw.neurons)} of {n_members} neurons")
    mapping = load_aggregation(data_dir / "aggregation.tsv")
    fconn = aggregate_functional(raw, mapping)
    assert fconn.neurons == frozenset(CRI_VALUES), (
        f"aggregated graph has {len(fconn.neurons)} neurons, want 121")

    cri, roles = load_cri_table(data_dir / "cri_table.csv")
    sel = select_correlated(cri, roles, TopK(11))
    assert set(sel.sensory) == EXPECTED_SELECTION["sensory"], sel.sensory
    assert set(sel.inter) == EXPECTED_SELECTION["inter"], sel.inter
    assert set(sel.motor) == EXPECTED_SELECTION["motor"], sel.motor

    circuit = extract_circuits(fconn, sel, ExtractionConfig(k=3))
    assert circuit.edges == EXPECTED_EDGES, (
        f"extraction drifted:\n  extra: {sorted(set(circuit.edges) - set(EXPECTED_EDGES))}"
        f"\n  missing: {sorted(set(EXPECTED_EDGES) - set(circuit.edges))}")
    assert circuit.role_counts() == (10, 5, 7)
    assert abs(sparsity(circuit) - (1 - 21 / (22 * 21))) < 1e-12

    for (pre, post), w in EXPECTED_EDGES.items():
        assert edge_weight(fconn, pre, post) == int(w)

    arch = synthesize_circuit_arch(circuit, 8, (1, 28, 28), 10)
    v = validate(arch)
    print(f"  circuit arch: {len(arch.blocks)} blocks, {param_count(v)} parameters")
    for seed in (0, 1, 2):
        rv = validate(synthesize_randomized_arch(circuit, 8, seed, (1, 28, 28), 10))
        print(f"  randomized seed {seed}: {param_count(rv)} parameters")
    sv = validate(synthesize_sequential_arch(8, (1, 28, 28), 10))
    print(f"  sequential arch: {param_count(sv)} parameters")


def main() -> None:
    data_dir = Path(__file__).resolve().parents[1] / "src" / "circuitforge" / "data"
    data_dir.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng(SEED)

    roles = functional_roles()
    members = member_map()
    chem, elec = build_functional_graph(rng, roles)
    chem_raw, elec_raw = split_to_raw(rng, members, chem, elec)

    raw_roles = {m: roles[f] for f, group in members.items() for m in group}
    conn = Connectome(roles=raw_roles, chem=chem_raw, elec=elec_raw)
    save_connectome(conn, data_dir / "connectome.tsv", data_dir / "roles.tsv")
    write_table(data_dir / "aggregation.tsv", AGGREGATION_TSV,
                ((raw_name, functional) for functional in sorted(members)
                 for raw_name in sorted(members[functional])))
    write_cri_table(CriTable(values=dict(CRI_VALUES), n_genes=0), roles,
                    data_dir / "cri_table.csv")

    n_raw = sum(len(g) for g in members.values())
    print(f"wrote {data_dir}:")
    print(f"  {n_raw} raw neurons in {len(members)} functional groups")
    print(f"  {len(chem_raw)} chemical pairs, {len(set(map(frozenset, elec_raw)))} electrical pairs")
    verify(data_dir)
    print("verification passed")


if __name__ == "__main__":
    main()
