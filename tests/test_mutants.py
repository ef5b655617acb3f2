import mutants


def test_every_old_text_occurs_once():
    # tests/mutants.py's probe edits each old text in a copy of src/; one that
    # no longer occurs exactly once would leave its mutant unapplied or ambiguous
    assert mutants.misplaced() == []
