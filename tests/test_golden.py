"""Every report of the golden corpus (tests/golden/regenerate.py) hashes to
the sha256 recorded in tests/golden/manifest.json."""

import importlib.util
import json
from pathlib import Path

import numpy as np

GOLDEN = Path(__file__).parent / "golden"


def _corpus():
    spec = importlib.util.spec_from_file_location("golden_regenerate", GOLDEN / "regenerate.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_reports_match_the_golden_manifest(tmp_path):
    manifest = json.loads((GOLDEN / "manifest.json").read_text(encoding="utf-8"))
    assert manifest["numpy"] == np.__version__, (
        f"the golden manifest was written under numpy {manifest['numpy']}, this is numpy "
        f"{np.__version__}; report digits may differ between numpy versions")
    corpus = _corpus()
    texts = corpus.reports(tmp_path)
    assert sorted(texts) == sorted(manifest["reports"]), "the corpus and the manifest name different reports"
    changed = [key for key, text in texts.items() if corpus.digest(text) != manifest["reports"][key]]
    assert not changed, (
        "reports differ from the golden manifest: " + "; ".join(f"spectree {key}" for key in changed)
        + f" (documents in {tmp_path}; see tests/golden/regenerate.py)")
