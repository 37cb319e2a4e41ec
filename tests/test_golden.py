"""Golden-output tests for `play`: every file it writes, pinned by sha256.

Five loophole configurations run through `main()` at 20 rounds x 50 shots
and the digests of all files written (including the `qrng` records that
feed the replay run and a `report` over the defaults run) are compared
with constants recorded before the two round engines were merged.  A
sixth run plays 3000 rounds x 10 shots and reports on them, so the density
estimate spans many blocks of grid rows; its constants were recorded from
the whole-matrix density estimate.  Any change
to input drawing, seed derivation, sampling, detection, tallying,
certification or serialisation shows up here as a digest mismatch.
Four of the runs are played again from a config file written from the
config each one played, with no other run flag; the rounds, certificate
and Alice bits must come out the same.

Randomness scheme: diqrng/philox-sha256/v1.  To re-record after a
deliberate scheme change, run ``python tests/test_golden.py`` and paste
the printed table.
"""

from __future__ import annotations

import hashlib
import os

import pytest

from diqrng import cli
from diqrng.cli import EXIT_NOT_VIOLATED, EXIT_OK, main
from diqrng.harness import run_certified_experiment
from diqrng.io import atomic_write_text, canonical_json

SIZE = ["--rounds", "20", "--shots", "50"]


def _run_defaults(d: str) -> None:
    assert main(["play", *SIZE, "--seed", "5", "--out-dir", d]) == EXIT_OK
    assert main(["report", "--rounds-csv", os.path.join(d, "rounds.csv"),
                 "--label", "golden", "--out-dir", os.path.join(d, "report")]) == EXIT_OK


def _run_report_blocks(d: str) -> None:
    # 3000 rounds put about 21 grid rows in each block of the density estimate
    assert main(["play", "--rounds", "3000", "--shots", "10", "--seed", "11",
                 "--out-dir", d]) == EXIT_OK
    assert main(["report", "--rounds-csv", os.path.join(d, "rounds.csv"),
                 "--label", "blocks", "--out-dir", os.path.join(d, "report")]) == EXIT_OK


def _run_stale_state(d: str) -> None:
    assert main(["play", *SIZE, "--seed", "6", "--lambda", "0.05", "--stale-state",
                 "--out-dir", d]) == EXIT_OK


def _run_dependent_inputs(d: str) -> None:
    # the belem noise level is too high to certify at 1000 shots
    assert main(["play", *SIZE, "--seed", "7", "--profile", "ibmq_belem",
                 "--dependent-inputs", "--out-dir", d]) == EXIT_NOT_VIOLATED


def _run_lossy(d: str) -> None:
    assert main(["play", *SIZE, "--seed", "8", "--efficiency", "0.7",
                 "--report-all-events", "--out-dir", d]) == EXIT_OK


def _run_replay(d: str) -> None:
    qx, qy = os.path.join(d, "qx"), os.path.join(d, "qy")
    assert main(["qrng", "--mode", "parity", "--qubits", "3", "--shots", "10",
                 "--seed", "31", "--out", qx, "--counts-out", qx + ".json"]) == EXIT_OK
    assert main(["qrng", "--mode", "hadamard", "--qubits", "2", "--shots", "15",
                 "--seed", "32", "--out", qy, "--counts-out", qy + ".json"]) == EXIT_OK
    assert main(["play", *SIZE, "--seed", "9", "--replay-x", qx + ".json",
                 "--replay-y", qy + ".json", "--out-dir", os.path.join(d, "play")]) == EXIT_OK


RUNS = {
    "defaults": _run_defaults,
    "stale_state": _run_stale_state,
    "dependent_inputs": _run_dependent_inputs,
    "lossy_report_all": _run_lossy,
    "replay": _run_replay,
    "report_blocks": _run_report_blocks,
}

# sha256 of every file written, keyed by path relative to the run directory
GOLDEN: dict[str, dict[str, str]] = {
    'defaults': {
        'alice_bits.bin': '55ab5bd5ebeae609078d0e5802aa0be72f6d47794de2523c92fc1b0396707dc2',
        'alice_bits.txt': 'cf8209dd3df3f907e9eaa1b371075bfbaf840caabdb3a25b01e400cae82628a2',
        'certificate.json': 'ae16dba1814171af7ec3d1771ee5198e1dd65e1c395d998f04ffc62649074ff3',
        'report/density.csv': '5296637f7d91143a01f37c6d55a7f64f8a9fa4c5419acb780731b9f330e4218b',
        'report/hist.csv': 'd4c86fcee420c137d69ece9b60f78f9d73043c1314612ab81b5691f3000efb9a',
        'report/running_avg.csv': 'cc520a9459e5d798ae3454dbded2e90661798ff2c3b042a29367a070dd167456',
        'report/summary.json': 'ee35bfae17289b6f8675778e0a0ea4646d544d74ae76098e84053668239b7c93',
        'rounds.csv': 'c04fc36717e78356a23785e7397897fcaba029527ba78e1c89e9669052e501f6',
        'summary.json': '80821c9869388bceddcfc5527cdf9bcdd0e18cd439b6fef9424b890f571893bd',
    },
    'dependent_inputs': {
        'alice_bits.bin': 'e8ffbc8e0e686b70e9b6e3a0800a4a37dbbb69f0bbe065844ea74d8b023da040',
        'alice_bits.txt': 'c697ae293d4e76de36753e4030646777ca1b9f65fee07b9d8d4421da8d715e06',
        'certificate.json': '76f06ae4c68cc9a366fea314a95cde715589c607e663e18fd6c27a1787a7b7cd',
        'rounds.csv': '3772b1314cd6346f14ed6b17ee50bfd11a3541672df86706473fc6ae626704c6',
        'summary.json': 'd2738a7303eb4b9966dc0f478beb5374dd02564249f82d8e1565fdbf4c16e5ed',
    },
    'lossy_report_all': {
        'alice_bits.bin': 'a6e2116649ce9eda5cac22974b9f90ce0f4b774de3ccd6addbc2cf6bd0da4a51',
        'alice_bits.txt': 'c2f0f566c268f60f59735147149ce81a259e98e5af1bf9bbdd5a565499b7aed5',
        'certificate.json': 'f056698cbaa8a6fe5d4c49e940cc7a5bef2647380310e10b2df2b42b5040870e',
        'rounds.csv': '5ce5194ba30d766291085d6322e940a30e55d2bc78a650cadaf8e6e7c56efaed',
        'summary.json': 'aa1991f929223a73a94e36b45aa64d86e0504c78d2b0307639976741a76e0828',
    },
    'replay': {
        'play/alice_bits.bin': 'dca389cd58a4804063480bec9e31e98e3b73c04a4dca143f46923d127692f748',
        'play/alice_bits.txt': '4ee80fa37893aeaafa3e74903d890e2d0ee78bb24ee1e1c72026765b5e70abc3',
        'play/certificate.json': '3764cba923cec5cc0726425b081ddbb0a465af3589d81d37c211cdc947bf66d0',
        'play/rounds.csv': '425d1d3e88028cbb1397cf792490e6f691330204348cd9a1101f4a5c6017c850',
        'play/summary.json': 'a2ed1a43417a8fcdacbe7cc8192f8e1b64d7be4da7b6076f36ae6b1a6c68aa00',
        'qx.bin': '570b105c50eb0d962d5b06aa4878ce84ae4c55cfa2432b3726c0fae901d0532b',
        'qx.json': '2e24cf324cb7854ae20bff41753404539cb30d6d06257d8dc2c3043bac402a14',
        'qx.txt': '7d51a1fd4c049ecffc16a41ba71ce7051b1a51a1fadc54ea4be52cd1b245da52',
        'qy.bin': '1375a574e0bc3b0124669679f35626f84849fd5b3814d5d71a5c7a2e8dbbfadc',
        'qy.json': 'cee830fdafaaed41ecdd976cc351b3bb1f3531762469f87705df9a3ad953c813',
        'qy.txt': '54d9d34e8e0e3558bfde4b4edcb85ada48dfe76232a3085146845fe88868b3a8',
    },
    'report_blocks': {
        'alice_bits.bin': '220dbef4668c010a7665e6f268c1844d41e33c5cb04109feb862f30f8f41ebb1',
        'alice_bits.txt': 'd9705d751e4c392103d1dece820530732fcd9419df79cf6b17d9326010367e4b',
        'certificate.json': '15901b4598225c9a34c598c50335ed3a2a22eca637de1a1494ec97d3a9626163',
        'report/density.csv': '39470aa8b781ebc93581abe692f5c2dcbe3588bfd0ed2f700dbfaabb8fb61fab',
        'report/hist.csv': '18570fe1c08b08cc56d35deca07444086fd266701ec8329c761e6b5d4befb1b4',
        'report/running_avg.csv': 'a1f05ffd97734551c33479ef7f7572fa9faa54c47d17092fa25df88b8e11e126',
        'report/summary.json': '16daba86414cd4aa2c3009e00cc60052e571d1eb540c84a8e8a7a1da15e9e4d4',
        'rounds.csv': '35ea25b0775588e90b86f265fd33abdbc0cef2f09f60443a5c47d5e4ce623d07',
        'summary.json': 'd76ddcc212b8b3b3da7289c05998eb0ed65c25dfaa0feb64d99f6facadf6d158',
    },
    'stale_state': {
        'alice_bits.bin': '2fba7bb95847f27131ad54f604414fb11332b40b2b53bc3c4fb783b7cc93a2e6',
        'alice_bits.txt': 'b7d84a9e53e82b7569084cd6732d8619b74cbfc9e5ca4954b828240c53ecbd8a',
        'certificate.json': 'cdb2cc87b768fd03d11dda98ba0536b708dc2ccaaeb8f9e0f36642b5d7b325b9',
        'rounds.csv': 'ce88c961c484dfed8af5b237bb24027def0c69e9c1e303b6b8f13185ed23a185',
        'summary.json': 'd2cbb840748d45d432bdd7b63a9dc16020f7cd1991958aa465303e5695858ba1',
    },
}


def _digests(root: str) -> dict[str, str]:
    out = {}
    for dirpath, _, names in os.walk(root):
        for name in names:
            path = os.path.join(dirpath, name)
            with open(path, "rb") as fh:
                digest = hashlib.sha256(fh.read()).hexdigest()
            out[os.path.relpath(path, root).replace(os.sep, "/")] = digest
    return dict(sorted(out.items()))


@pytest.mark.parametrize("name", sorted(RUNS))
def test_play_outputs_match_golden_digests(name, tmp_path):
    RUNS[name](str(tmp_path))
    assert _digests(str(tmp_path)) == GOLDEN[name]


@pytest.mark.parametrize("name", ["stale_state", "dependent_inputs", "lossy_report_all",
                                  "replay"])
def test_config_file_reproduces_the_flag_driven_run(name, tmp_path, monkeypatch):
    """`play --config FILE` alone, FILE written from the config a flag-driven
    run played, writes the same rounds, certificate and Alice bits."""
    played = []

    def recording(config):
        played.append(config)
        return run_certified_experiment(config)

    monkeypatch.setattr(cli, "run_certified_experiment", recording)
    flags = tmp_path / "flags"
    flags.mkdir()
    RUNS[name](str(flags))
    config_path = tmp_path / "config.json"
    atomic_write_text(config_path, canonical_json(played[-1].to_json_obj(), precise=True))
    out = tmp_path / "config"
    assert main(["play", "--config", str(config_path), "--out-dir", str(out)]) in (
        EXIT_OK, EXIT_NOT_VIOLATED)
    flags_out = flags / "play" if name == "replay" else flags
    for file in ("rounds.csv", "certificate.json", "alice_bits.txt", "alice_bits.bin"):
        assert (out / file).read_bytes() == (flags_out / file).read_bytes(), file


if __name__ == "__main__":
    import contextlib
    import io
    import tempfile

    for name in sorted(RUNS):
        with tempfile.TemporaryDirectory() as d:
            with contextlib.redirect_stdout(io.StringIO()):
                RUNS[name](d)
            print(f"    {name!r}: {{")
            for rel, digest in _digests(d).items():
                print(f"        {rel!r}: {digest!r},")
            print("    },")
